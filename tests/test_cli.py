import io
import json
import subprocess
import sys

import pytest

from graphabac.cli import main, serve_loop
from graphabac.combine import CombiningAlgorithm
from graphabac.dsl import bundled_model_text, load_bundled_model


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

    def test_subprocess_entry_point(self, model_path):
        code, out, _ = run_cli(["check", model_path, "John", "Write", "MR_1234"])
        assert (code, out.strip()) == (0, "Permit")


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


class TestValidate:
    def test_healthcare_summary(self, model_path, capsys):
        code = main(["validate", model_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "Policy2: valid" in out
        assert "3 policies valid; attribute depth 2" in out

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

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_text("node : broken\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_non_utf8_model_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.abac"
        path.write_bytes(b"node \xff\xfe : Attribute\n")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{path}:0:0: model file is not UTF-8 text")
        assert captured.out == ""

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
