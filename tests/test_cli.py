import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graphabac.cli as cli
from graphabac.cli import MAX_REQUEST_CHARS, main, request_lines, serve_loop
from graphabac.combine import CombiningAlgorithm
from graphabac.dsl import LoadedModel, bundled_model_text, load_bundled_model
from graphabac.graph import HAS_ATTR, Graph
from graphabac.matcher import AccessQuery
from graphabac.policy import ConditionType, Decision, PolicyStore, Ref


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "healthcare.abac"
    path.write_text(bundled_model_text(), encoding="utf-8")
    return str(path)


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "graphabac", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCheck:
    def test_permit_exit_zero(self, model_path, capsys):
        code = main(["check", model_path, "John", "Write", "MR_1234"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Permit"

    def test_deny_exit_one(self, model_path, capsys):
        code = main(["check", model_path, "Sue", "Write", "MR_1234"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "Deny"

    def test_unknown_name_exit_two(self, model_path, capsys):
        code = main(["check", model_path, "Ghost", "Read", "MR_1234"])
        assert code == 2
        captured = capsys.readouterr()
        assert "Ghost" in captured.err
        assert "Deny" not in captured.out

    def test_load_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.abac"
        bad.write_text("node x :\n", encoding="utf-8")
        assert main(["check", str(bad), "a", "b", "c"]) == 2

    def test_non_utf8_model_is_load_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.abac"
        bad.write_bytes(b"node \xff\xfe : Attribute\n")
        assert main(["check", str(bad), "a", "b", "c"]) == 2
        captured = capsys.readouterr()
        assert "UTF-8" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "validate"])
    def test_unreadable_model_exit_two(self, command, tmp_path, capsys):
        query = ["a", "b", "c"] if command == "check" else []
        missing = tmp_path / "missing.abac"
        assert main([command, str(missing), *query]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"graphabac: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert captured.out == ""
        assert main([command, str(tmp_path), *query]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("graphabac: ") and "Traceback" not in captured.err
        assert captured.out == ""

    def test_algorithm_flag(self, model_path, capsys):
        code = main(
            [
                "check", model_path, "Sue", "Read", "MR_1234",
                "--algorithm", "shortest-path-deny-overrides",
            ]
        )
        assert code == 0

    def test_negative_depth_is_usage_error(self, model_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", model_path, "John", "Write", "MR_1234", "--depth", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--depth" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command",
        [
            ["check", "John", "Write", "MR_1234"],
            ["explain", "John", "Write", "MR_1234"],
            ["serve"],
            ["export-cypher"],
        ],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize("value", ["x", "1.5", "-1"])
    def test_bad_depth_names_the_value(self, model_path, capsys, command, value):
        # Every bad value gets the same message, naming no function of the
        # program.
        with pytest.raises(SystemExit) as exc:
            main([command[0], model_path, *command[1:], "--depth", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        expected = f"argument --depth: must be a non-negative integer, got {value!r}"
        assert last == f"graphabac {command[0]}: error: {expected}"

    def test_subprocess_entry_point(self, model_path):
        code, out, _ = run_cli(["check", model_path, "John", "Write", "MR_1234"])
        assert (code, out.strip()) == (0, "Permit")

    def test_runs_on_the_standard_library_alone(self):
        # -I drops PYTHONPATH and the working directory, -S site-packages, so
        # only the standard library and the package's own source import.
        package = os.path.dirname(cli.__file__)
        model = os.path.join(package, "data", "healthcare.abac")
        script = f"""
import importlib, pkgutil, runpy, sys
sys.path.insert(0, {os.path.dirname(package)!r})
import graphabac
for m in pkgutil.iter_modules(graphabac.__path__):
    if m.name != "__main__":
        importlib.import_module("graphabac." + m.name)
print(*sorted(n for n in sys.modules if n.startswith("graphabac.")), file=sys.stderr)
sys.argv = ["graphabac", "check", {model!r}, "John", "Write", "MR_1234"]
runpy.run_module("graphabac", run_name="__main__")
"""
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True
        )
        modules = {
            f"graphabac.{name[:-3]}"
            for name in os.listdir(package)
            if name.endswith(".py") and name not in ("__init__.py", "__main__.py")
        }
        assert modules <= set(proc.stderr.split()), proc.stderr
        assert (proc.returncode, proc.stdout.strip()) == (0, "Permit")

    def test_start_up_imports_only_what_a_decision_needs(self):
        # Under -I -S nothing outside the standard library and the package
        # is imported first, so the modules left out are left out by the
        # package itself; those that read the bundled model or write Cypher
        # still work when asked.  No front end writes model text, so the
        # serializer is never imported.
        package = os.path.dirname(cli.__file__)
        model = os.path.join(package, "data", "healthcare.abac")
        script = f"""
import sys
sys.path.insert(0, {os.path.dirname(package)!r})
import graphabac.cli
unused = [
    "dataclasses", "inspect", "importlib.resources", "graphabac.cypher", "graphabac.serialize"
]
print(*[m for m in unused if m in sys.modules])
from graphabac.dsl import load_bundled_model
print(len(load_bundled_model().policies), flush=True)
code = graphabac.cli.main(["check", {model!r}, "John", "Write", "MR_1234"])
print(code, "graphabac.serialize" in sys.modules, flush=True)
sys.exit(graphabac.cli.main(["export-cypher", {model!r}, "--what", "policies"]))
"""
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        loaded, bundled, decided, checked, cypher = proc.stdout.split("\n", 4)
        assert loaded == "", f"imported at start-up: {loaded}"
        assert bundled == "3"
        assert (decided, checked) == ("Permit", "0 False")
        code, expected, _ = run_cli(["export-cypher", model, "--what", "policies"])
        assert (code, cypher) == (0, expected)


class TestExplain:
    def test_reports_lengths(self, model_path, capsys):
        code = main(["explain", model_path, "Sue", "Read", "MR_1234"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Policy3" in out
        assert "subject=2" in out and "action=1" in out and "object=2" in out
        assert "total=5" in out
        assert "decision: Permit" in out

    def test_no_match_message(self, model_path, capsys):
        code = main(["explain", model_path, "Sue", "Write", "MR_1234"])
        assert code == 1
        out = capsys.readouterr().out
        assert "no matching policies; default Deny" in out

    def test_closures_taken_once(self, model_path, monkeypatch, capsys):
        # The report reads the closures the decision was made from.
        calls = []
        closure = Graph.attribute_closure

        def counting(self, *args):
            calls.append(args)
            return closure(self, *args)

        monkeypatch.setattr(Graph, "attribute_closure", counting)
        assert main(["explain", model_path, "John", "Write", "MR_1234"]) == 0
        assert "Policy2" in capsys.readouterr().out
        assert len(calls) == 3

    def test_shows_restriction_step(self, model_path, capsys):
        main(
            [
                "explain", model_path, "John", "Write", "MR_1234",
                "--algorithm", "shortest-path-deny-overrides",
            ]
        )
        out = capsys.readouterr().out
        assert "considered by algorithm:" in out
        assert "decision: Permit" in out


# Node S is both a plain subject condition of Both and a leaf of its
# compound one, so Both's subject lists it twice.
COMPOUND_MODEL = """\
node u : Subject, Primitive
node R : Attribute
node S : Attribute
node a : Action
node o : Object, Primitive
edge u -[HAS_ATTR]-> R
edge u -[HAS_ATTR]-> S
policy Both permit { subject: S; (R or not S); action: a; object: o; }
policy NotR deny { subject: S; action: not R; object: not S; }
policy Miss deny { subject: not S; action: a; object: o; }
"""


class TestExplainGolden:
    """The whole of explain's stdout and its exit code, pinned."""

    CASES = {
        "permit": (
            ["Sue", "Read", "MR_1234"],
            0,
            """\
query: subject=Sue action=Read object=MR_1234
algorithm: deny-overrides (attribute depth 2)
matching policies:
  Policy3 [Permit, score 0] subject=2 [Doctor, Peter's Family Clinic] action=1 [Read] object=2 [Peter's Medical Records] total=5
considered by algorithm:
  Policy3
decision: Permit
""",
        ),
        "shortest-path": (
            ["John", "Write", "MR_1234", "--algorithm", "shortest-path-deny-overrides"],
            0,
            """\
query: subject=John action=Write object=MR_1234
algorithm: shortest-path-deny-overrides (attribute depth 2)
matching policies:
  Policy2 [Permit, score 0] subject=2 [Doctor, Hospital Staff] action=2 [Full Access] object=3 [Hospital Records] total=7
considered by algorithm:
  Policy2
decision: Permit
""",
        ),
        "no-match": (
            ["Sue", "Write", "MR_1234"],
            1,
            """\
query: subject=Sue action=Write object=MR_1234
algorithm: deny-overrides (attribute depth 2)
no matching policies; default Deny
decision: Deny
""",
        ),
        "depth-0": (
            ["Peter", "Read", "MR_1234", "--depth", "0"],
            1,
            """\
query: subject=Peter action=Read object=MR_1234
algorithm: deny-overrides (attribute depth 0)
no matching policies; default Deny
decision: Deny
""",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bundled_model(self, case, model_path, capsys):
        args, code, out = self.CASES[case]
        assert main(["explain", model_path, *args]) == code
        assert capsys.readouterr().out == out

    def test_compound_model_with_not_leaves(self, tmp_path, capsys):
        path = tmp_path / "compound.abac"
        path.write_text(COMPOUND_MODEL, encoding="utf-8")
        assert main(["explain", str(path), "u", "a", "o"]) == 1
        assert capsys.readouterr().out == """\
query: subject=u action=a object=o
algorithm: deny-overrides (attribute depth 1)
matching policies:
  Both [Permit, score 0] subject=2 [R, S] action=1 [a] object=1 [o] total=4
  NotR [Deny, score 0] subject=2 [S] action=2 [] object=2 [] total=6
considered by algorithm:
  NotR
decision: Deny
"""

    def test_first_applicable_considers_one_of_two_matches(self, two_match_text, tmp_path, capsys):
        path = tmp_path / "two.abac"
        path.write_text(two_match_text, encoding="utf-8")
        assert main(["explain", str(path), "u", "a", "o", "--algorithm", "first-applicable"]) == 0
        assert capsys.readouterr().out == """\
query: subject=u action=a object=o
algorithm: first-applicable (attribute depth 1)
matching policies:
  Near [Permit, score 0] subject=1 [u] action=1 [a] object=1 [o] total=3
  Far [Deny, score 0] subject=2 [R] action=1 [a] object=1 [o] total=4
considered by algorithm:
  Near
decision: Permit
"""


class TestValidate:
    def test_healthcare_summary(self, model_path, capsys):
        code = main(["validate", model_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "Policy2: valid" in out
        assert "3 policies valid; attribute depth 2" in out

    def test_lists_policies_without_compiling_a_snapshot(self, model_path, monkeypatch, capsys):
        def no_snapshot(self):
            raise AssertionError("validate compiled a policy snapshot")

        monkeypatch.setattr(PolicyStore, "policies", no_snapshot)
        assert main(["validate", model_path]) == 0
        assert "Policy2: valid" in capsys.readouterr().out

    def test_invalid_policy_exit_one(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_text(
            "node a : Attribute\npolicy P permit { subject: a; }\n",
            encoding="utf-8",
        )
        code = main(["validate", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'P'" in err and "ACT_CON" in err

    def test_cycle_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_text(
            "node a : Attribute\nnode b : Attribute\n"
            "edge a -[HAS_ATTR]-> b\nedge b -[HAS_ATTR]-> a\n",
            encoding="utf-8",
        )
        code = main(["validate", str(path)])
        assert code == 2
        assert "cycle" in capsys.readouterr().err

    def test_label_clash_placed_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_text("node a : Attribute\n  node x : Primitive, Policy\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"{path}:2:3: node 'x' cannot be both Primitive and Policy\n"
        )

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_text("node : broken\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_too_deep_nesting_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_text(
            "node a : Attribute\n"
            f"policy P permit {{ subject: {'not ' * 5000}a; action: a; object: a; }}\n",
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{path}:2:1: policy 'P' nests conditions deeper than 100 levels\n"
        assert main(["check", str(path), "a", "a", "a"]) == 2
        assert "nests conditions deeper" in capsys.readouterr().err

    def test_too_long_score_exit_two(self, tmp_path, capsys, monkeypatch):
        # CPython 3.11 and later convert at most sys.get_int_max_str_digits()
        # digits; where the score has more, every front end reports a syntax
        # error at it, and elsewhere the model loads.
        path = tmp_path / "m.abac"
        path.write_text(
            "node a : Attribute, Primitive\n"
            f"policy P permit score {'9' * 5000} {{ subject: a; action: a; object: a; }}\n",
            encoding="utf-8",
        )
        if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            assert main(["validate", str(path)]) == 0
            return
        error = f"{path}:2:23: integer too long: 5000 characters\n"
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == error
        # serve fails at start-up, before it reads a request.
        monkeypatch.setattr(sys, "stdin", None)
        for args in (["check", str(path), "a", "a", "a"], ["serve", str(path)]):
            assert main(args) == 2
            assert capsys.readouterr().err == "graphabac: failed to load model:\n" + error

    def test_non_utf8_model_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_bytes(b"node \xff\xfe : Attribute\n")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{path}:0:0: model file is not UTF-8 text")
        assert captured.out == ""

    def test_byte_order_mark_is_dropped(self, model_path, tmp_path, capsys):
        path = tmp_path / "bom.abac"
        path.write_text("\ufeff" + bundled_model_text(), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert "3 policies valid" in capsys.readouterr().out
        for model in (model_path, str(path)):
            assert main(["check", model, "Sue", "Read", "MR_1234"]) == 0
            assert capsys.readouterr().out.strip() == "Permit"

    def test_condition_on_policy_node_exit_one(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_text(
            "node a : Attribute\nnode Other : Policy\n"
            "policy P permit { subject: Other; action: a; object: a; }\n",
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "'P'" in captured.err and "Other" in captured.err
        assert captured.out == ""


class TestExportCypher:
    def test_data_script(self, model_path, capsys):
        code = main(["export-cypher", model_path, "--what", "data"])
        assert code == 0
        assert "(:Subject:User:Primitive {name:'Peter'})" in capsys.readouterr().out

    def test_query_script(self, model_path, capsys):
        code = main(
            [
                "export-cypher", model_path, "--what", "query",
                "--algorithm", "deny-overrides", "--depth", "5",
            ]
        )
        assert code == 0
        assert "[:HAS_ATTR*0..5]" in capsys.readouterr().out

    def test_policies_script(self, model_path, capsys):
        code = main(["export-cypher", model_path, "--what", "policies"])
        assert code == 0
        assert "create (pol:Policy {name:'Policy2', decision:'Permit'})" in capsys.readouterr().out

    @pytest.mark.parametrize("what", ["data", "policies"])
    def test_model_that_fails_to_load_exit_two(self, tmp_path, capsys, what):
        path = tmp_path / "bad.abac"
        path.write_text(
            "node a : Attribute\npolicy P permit { subject: Ghost; action: a; object: a; }\n",
            encoding="utf-8",
        )
        code = main(["export-cypher", str(path), "--what", what])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{path}:2:28: policy 'P' references unknown node 'Ghost'" in captured.err

    def test_unsupported_query_algorithm(self, model_path, capsys):
        code = main(
            [
                "export-cypher", model_path, "--what", "query",
                "--algorithm", "max-score-deny-overrides",
            ]
        )
        assert code == 2


class TestServe:
    def request(self, **kw):
        return json.dumps(kw)

    def serve(self, lines, algorithm=CombiningAlgorithm.DENY_OVERRIDES):
        model = load_bundled_model()
        out = io.StringIO()
        serve_loop(model, algorithm, io.StringIO("\n".join(lines) + "\n"), out)
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_permit_response(self):
        (resp,) = self.serve(
            [self.request(id="q1", subject="John", action="Write", object="MR_1234")]
        )
        assert resp == {
            "id": "q1",
            "decision": "Permit",
            "matching": ["Policy2"],
            "error": None,
        }

    def test_deny_response(self):
        (resp,) = self.serve(
            [self.request(id="q2", subject="Sue", action="Write", object="MR_1234")]
        )
        assert resp["decision"] == "Deny"
        assert resp["matching"] == []
        assert resp["error"] is None

    def test_malformed_line_fails_closed(self):
        (resp,) = self.serve(["not-json-line"])
        assert resp["id"] == ""
        assert resp["decision"] == "Deny"
        assert resp["matching"] == []
        assert resp["error"]

    def test_order_preserved_across_mixed_input(self):
        lines = [
            self.request(id="a", subject="John", action="Write", object="MR_1234"),
            "garbage",
            self.request(id="b", subject="Ghost", action="Write", object="MR_1234"),
            self.request(id="c", subject="Sue", action="Read", object="MR_1234"),
        ]
        responses = self.serve(lines)
        assert [r["id"] for r in responses] == ["a", "", "b", "c"]
        assert [r["decision"] for r in responses] == [
            "Permit", "Deny", "Deny", "Permit",
        ]

    def test_per_request_algorithm_and_unknown_fields_ignored(self):
        (resp,) = self.serve(
            [
                self.request(
                    id="q", subject="Sue", action="Read", object="MR_1234",
                    algorithm="permit-overrides", extra="ignored",
                )
            ]
        )
        assert resp["decision"] == "Permit"
        assert set(resp) == {"id", "decision", "matching", "error"}

    def test_deeply_nested_json_fails_closed(self):
        lines = [
            "[" * 100_000,
            self.request(id="ok", subject="John", action="Write", object="MR_1234"),
        ]
        first, second = self.serve(lines)
        assert first["decision"] == "Deny"
        assert first["error"]
        assert second["id"] == "ok"
        assert second["decision"] == "Permit"

    def test_negative_depth_rejected_at_startup(self, model_path):
        stdin = self.request(id="1", subject="John", action="Write", object="MR_1234")
        code, out, err = run_cli(["serve", model_path, "--depth", "-1"], stdin=stdin)
        assert code == 2
        assert out == ""
        assert "--depth" in err

    def test_undecodable_bytes_fail_closed(self, model_path):
        # A strict stdin decoder, as an ordinary UTF-8 locale gives.
        env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
        ok = self.request(id="1", subject="John", action="Write", object="MR_1234")
        stdin = (ok + "\n").encode() + b"\xff\xfe bad\n" + (ok + "\n").encode()
        proc = subprocess.run(
            [sys.executable, "-m", "graphabac", "serve", model_path],
            input=stdin,
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["decision"] for r in responses] == ["Permit", "Deny", "Permit"]
        assert responses[1]["error"]

    def test_over_long_line_fails_closed(self, model_path):
        ok = self.request(id="1", subject="John", action="Write", object="MR_1234")
        stdin = f"{ok}\n{'[' * (3 * MAX_REQUEST_CHARS)}\n{ok}\n"
        code, out, err = run_cli(["serve", model_path], stdin=stdin)
        assert code == 0, err
        responses = [json.loads(line) for line in out.splitlines()]
        assert [r["decision"] for r in responses] == ["Permit", "Deny", "Permit"]
        assert responses[1]["error"] == (
            f"request line longer than {MAX_REQUEST_CHARS} characters"
        )

    def test_line_length_bound_is_exact(self):
        ok = self.request(id="1", subject="John", action="Write", object="MR_1234")
        at_limit = ok.ljust(MAX_REQUEST_CHARS)
        stdin = io.StringIO(f"{at_limit}\n{at_limit} \n{ok}")
        out = io.StringIO()
        serve_loop(
            load_bundled_model(), CombiningAlgorithm.DENY_OVERRIDES, request_lines(stdin), out
        )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["decision"] for r in responses] == ["Permit", "Deny", "Permit"]
        assert responses[1]["error"]

    def test_non_json_whitespace_line_fails_closed(self):
        # Only space, tab, CR and LF are JSON whitespace; a line of other
        # whitespace is a malformed request, and a line of JSON whitespace
        # alone gets no response.
        ok = self.request(id="ok", subject="John", action="Write", object="MR_1234")
        lines = [ok, "\x1c", " \t\r", "\u3000", "", "\x0b", ok]
        responses = self.serve(lines)
        assert [r["decision"] for r in responses] == ["Permit", "Deny", "Deny", "Deny", "Permit"]
        assert all(r["error"] for r in responses[1:4])

    def test_non_json_whitespace_over_a_pipe(self, model_path):
        # The pipe's line reader splits on CR and LF only, so each of these
        # lines reaches the loop whole, and a closed-loop client gets a
        # reply to every one.
        ok = self.request(id="ok", subject="John", action="Write", object="MR_1234")
        stdin = f"\x1c\n{ok}\n\u3000\n\x0b\n \n{ok}\n"
        code, out, err = run_cli(["serve", model_path], stdin=stdin)
        assert code == 0, err
        responses = [json.loads(line) for line in out.splitlines()]
        assert [r["decision"] for r in responses] == ["Deny", "Permit", "Deny", "Deny", "Permit"]

    def test_subprocess_round_trip(self, model_path):
        stdin = "\n".join(
            [
                self.request(id="1", subject="John", action="Write", object="MR_1234"),
                self.request(id="2", subject="Sue", action="Write", object="MR_1234"),
            ]
        )
        code, out, _ = run_cli(["serve", model_path], stdin=stdin)
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert [r["decision"] for r in responses] == ["Permit", "Deny"]


_MODEL = load_bundled_model()

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)

# Requests shaped like the real ones, with each field present or not, and
# any JSON value or one of the model's names in it.
_NAMES = st.sampled_from([n.name for n in _MODEL.graph.nodes()]) | _JSON
_REQUESTS = st.fixed_dictionaries(
    {},
    optional={
        "id": st.text() | _JSON,
        "subject": _NAMES,
        "action": _NAMES,
        "object": _NAMES,
        "algorithm": st.sampled_from([a.value for a in CombiningAlgorithm]) | _JSON,
    },
)

# Lines of whitespace only, JSON's or not: str.isspace() is true for all.
_SPACES = st.text(st.sampled_from(" \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"))


class TestServeFuzz:
    """Any line that is not JSON whitespace alone gets exactly one Deny or
    decision, and nothing ends the loop."""

    def check(self, lines):
        out = io.StringIO()
        serve_loop(_MODEL, CombiningAlgorithm.DENY_OVERRIDES, lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        expected = [line for line in lines if line.strip(" \t\r\n")]
        assert len(responses) == len(expected)
        for r in responses:
            assert set(r) == {"id", "decision", "matching", "error"}
            assert r["decision"] in ("Permit", "Deny")
            assert isinstance(r["id"], str) and isinstance(r["matching"], list)
            assert r["error"] is None or r["error"]

    @settings(max_examples=300)
    @given(st.lists((st.text() | _SPACES).map(lambda t: t.replace("\n", "") + "\n"), max_size=5))
    def test_arbitrary_text_lines(self, lines):
        self.check(lines)

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_JSON | _REQUESTS, max_size=4))
    def test_arbitrary_json_lines(self, values):
        self.check([json.dumps(v) + "\n" for v in values])


# Text that json.dumps escapes or spells out: quotes, backslashes, control
# characters, non-ASCII and astral characters, and lone surrogates.
_ODD_CHARS = st.sampled_from('"\\/\x00\x08\x1f\x7f\x85\u2028\xe9\u20ac\U0001f600\ud800\udfff')
_ODD_TEXT = st.text(
    _ODD_CHARS | st.characters() | st.characters(min_codepoint=0x10000), min_size=1, max_size=6
).filter(lambda t: json.loads(json.dumps(t)) == t)  # JSON reads "\ud800\udfff" as one character

REPLY_KEYS = ["id", "decision", "matching", "error"]


def response(req_id, decision="Deny", matching=(), error=None):
    return {"id": req_id, "decision": decision, "matching": list(matching), "error": error}


def odd_model(names):
    """Subject, action and object nodes named ``names[:3]``, an attribute
    ``names[3]`` of the subject, and two policies named ``names[4:6]`` that
    match that triple, a Permit on the subject and a Deny on its attribute."""
    g = Graph()
    sub, act, obj, attr = (g.add_node(n) for n in names[:4])
    g.add_edge(sub, HAS_ATTR, attr)
    g.freeze()
    store = PolicyStore(g)
    for name, decision, node in ((names[4], Decision.PERMIT, sub), (names[5], Decision.DENY, attr)):
        conditions = {
            ConditionType.SUB_CON: [Ref(node)],
            ConditionType.ACT_CON: [Ref(act)],
            ConditionType.OBJ_CON: [Ref(obj)],
        }
        store.create_policy(name, decision, conditions)
    return LoadedModel(g, store)


def serve_text(model, lines, algorithm=CombiningAlgorithm.DENY_OVERRIDES):
    out = io.StringIO()
    serve_loop(model, algorithm, lines, out)
    return out.getvalue().splitlines(keepends=True)


class TestReplyBytes:
    """Each reply is the line ``json.dumps`` gives for the response object,
    keys in the order id, decision, matching, error."""

    def check(self, reply, expected):
        assert reply == json.dumps(expected) + "\n"
        assert list(json.loads(reply)) == REPLY_KEYS
        assert reply.isascii()

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(
        names=st.lists(_ODD_TEXT, min_size=6, max_size=6, unique=True),
        ids=st.lists(_ODD_TEXT, min_size=4, max_size=4),
        unknown=_ODD_TEXT,
        raw=_ODD_TEXT,
        ascii_only=st.booleans(),
    )
    def test_replies_equal_json_dumps(self, names, ids, unknown, raw, ascii_only):
        model = odd_model(names)
        sub, act, obj, attr, permit, deny = names
        while unknown in names:
            unknown += "?"
        slots = {"action": act, "object": obj}
        requests = [
            {"id": ids[0], "subject": sub, **slots},
            {"id": ids[1], "subject": attr, **slots, "algorithm": "first-applicable"},
            {"id": ids[2], "subject": unknown, **slots},
            {"id": ids[3], "subject": sub, **slots, "algorithm": unknown},
        ]
        lines = [json.dumps(r, ensure_ascii=ascii_only) + "\n" for r in requests]
        lines.append(raw.replace("\n", "").replace("\r", "") + "\n")
        replies = serve_text(model, lines)
        assert len(replies) == (5 if raw.strip(" \t\r\n") else 4)
        self.check(replies[0], response(ids[0], matching=[permit, deny]))
        self.check(replies[1], response(ids[1], matching=[deny]))
        self.check(replies[2], response(ids[2], error=f"unknown node {unknown!r}"))
        error = f"{unknown!r} is not a valid CombiningAlgorithm"
        self.check(replies[3], response(ids[3], error=error))
        for reply in replies[4:]:
            self.check(reply, json.loads(reply))
            assert json.loads(reply)["error"]

    def test_over_long_integer_error_text(self):
        # CPython 3.11 and later convert at most sys.get_int_max_str_digits()
        # digits.  A longer integer anywhere in a request gets a Deny in the
        # loader's words, never CPython's advice to raise that limit.
        digits = "9" * 5000
        query = '"subject": "John", "action": "Write", "object": "MR_1234"'
        lines = [
            f"{digits}\n",
            f'{{"id": "q", "subject": -{digits}}}\n',
            f'[{{"a": [1, {digits}]}}]\n',
            f'{{"id": {digits}, {query}}}\n',
            f'{{"id": "q", {query}, "n": {"9" * 50}}}\n',
        ]
        replies = serve_text(_MODEL, lines)
        for reply in replies:
            self.check(reply, json.loads(reply))
        replies = [json.loads(reply) for reply in replies]
        assert [r["decision"] for r in replies] == ["Deny"] * 4 + ["Permit"]
        assert not any("set_int_max_str_digits" in (r["error"] or "") for r in replies)
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            assert [r["error"] for r in replies[:4]] == [
                "integer too long: 5000 characters",
                "integer too long: 5001 characters",
                "integer too long: 5000 characters",
                "integer too long: 5000 characters",
            ]

    @pytest.mark.parametrize("line", ["\ufeff{}", '\ufeff{"id": "q"}', '{"id": "q", bad', "[1, 2"])
    def test_json_error_text_is_json_loads_own(self, line):
        line += "\n"
        with pytest.raises(ValueError) as refused:
            json.loads(line)
        assert serve_text(_MODEL, [line]) == [
            json.dumps(response("", error=str(refused.value))) + "\n"
        ]

    def test_permit_reply_line(self):
        line = json.dumps({"id": "q1", "subject": "John", "action": "Write", "object": "MR_1234"})
        assert serve_text(_MODEL, [line]) == [
            '{"id": "q1", "decision": "Permit", "matching": ["Policy2"], "error": null}\n'
        ]

    @pytest.mark.parametrize(
        "algorithm, error",
        [
            (["x"], "['x'] is not a valid CombiningAlgorithm"),
            ({"a": 1}, "{'a': 1} is not a valid CombiningAlgorithm"),
            (1, "1 is not a valid CombiningAlgorithm"),
            (True, "True is not a valid CombiningAlgorithm"),
            ("", "'' is not a valid CombiningAlgorithm"),
            ("best-effort", "'best-effort' is not a valid CombiningAlgorithm"),
        ],
    )
    def test_bad_algorithm_error_text(self, algorithm, error):
        request = {"id": "q", "subject": "John", "action": "Write", "object": "MR_1234"}
        (reply,) = serve_text(_MODEL, [json.dumps({**request, "algorithm": algorithm})])
        self.check(reply, response("q", error=error))

    @pytest.mark.parametrize(
        "algorithm, decision",
        [
            (None, "Deny"),
            ("deny-overrides", "Deny"),
            ("permit-overrides", "Permit"),
            ("first-applicable", "Permit"),
            ("max-score-deny-overrides", "Deny"),
            ("shortest-path-deny-overrides", "Permit"),
        ],
    )
    def test_request_algorithm_is_used(self, algorithm, decision):
        # Both policies match, the Permit first and one hop nearer.
        model = odd_model(["s", "a", "o", "t", "P", "D"])
        request = {"id": "q", "subject": "s", "action": "a", "object": "o", "algorithm": algorithm}
        (reply,) = serve_text(model, [json.dumps(request)], CombiningAlgorithm.DENY_OVERRIDES)
        self.check(reply, response("q", decision, ["P", "D"]))


class TestServeTimedContract:
    """``bench/serve_timed.py`` times ``serve_loop`` from outside: it counts
    one flush per reply, and it wraps ``cli.evaluate`` to time decisions."""

    def test_one_whole_line_then_one_flush_per_reply(self, monkeypatch):
        events = []

        class Out:
            def write(self, text):
                events.append(text)

            def flush(self):
                events.append(None)

        asked = []
        evaluate = cli.evaluate

        def counting(store, q, alg, depth=None):
            asked.append(q)
            return evaluate(store, q, alg, depth=depth)

        monkeypatch.setattr(cli, "evaluate", counting)
        ok = {"subject": "John", "action": "Write", "object": "MR_1234"}
        lines = [
            json.dumps({"id": "a", **ok}),
            "garbage",
            json.dumps({"id": "b", **ok, "subject": "Ghost"}),
            json.dumps({"id": "c", **ok, "algorithm": "best-effort"}),
            json.dumps({"id": "", **ok}),
            " \t\r",
            json.dumps({"id": "d", **ok, "action": "Read", "algorithm": "first-applicable"}),
            "[" * (MAX_REQUEST_CHARS + 1),
        ]
        lines = [f"{line}\n" for line in lines]
        serve_loop(_MODEL, CombiningAlgorithm.DENY_OVERRIDES, lines, Out())
        assert len(events) == 2 * 7
        assert events[1::2] == [None] * 7
        for text in events[0::2]:
            assert text.endswith("\n") and text.count("\n") == 1
        ids = [json.loads(text)["id"] for text in events[0::2]]
        assert ids == ["a", "", "b", "c", "", "d", ""]
        g = _MODEL.graph
        john, mr = g.find_node("John"), g.find_node("MR_1234")
        assert asked == [
            AccessQuery(john, g.find_node("Write"), mr),
            AccessQuery(john, g.find_node("Read"), mr),
        ]
