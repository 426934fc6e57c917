"""A model is freed by reference counting alone.

A process that swaps one loaded model for another, as an embedder or a
reloading ``serve`` would, must get the old one's memory back when it drops
the last reference, not at some later cyclic collection.  So every test here
runs with the cyclic collector off: a model must be gone the moment it is
deleted, after each load path and each way of deciding on it, and a
collection afterwards must find nothing.  Failed loads must leave nothing
either, and ``serve`` must leave the collector's state as it found it.  The
command line front ends pause the collector while they load a model, so
``serve`` on the benchmark's largest model runs no full collection before
it replies.
"""

import contextlib
import gc
import io
import json
import pathlib
import random
import subprocess
import sys
import weakref
from unittest import mock

import pytest

from graphabac import AccessQuery, CombiningAlgorithm, cli, combine, dsl, evaluate, load_model
from graphabac.cli import main, serve_loop
from graphabac.dsl import (
    EdgeDecl,
    ModelDocument,
    ModelLoadError,
    NameRef,
    NodeDecl,
    PolicyDecl,
    bundled_model_text,
    load_bundled_model,
    load_document,
    load_model_file,
    parse_model,
    serialize_model,
)
from graphabac.matcher import matches
from graphabac.policy import ConditionType, Decision, Not, Ref
from randmodel import random_model, random_notfree_expr


@contextlib.contextmanager
def collector_off():
    """The cyclic collector off, after one collection of what came before."""
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def random_model_text(seed):
    """A ``randmodel`` graph and its simple policies as model text, with
    policies whose slots hold ``and``, ``or`` and ``not`` conditions added."""
    rng = random.Random(seed)
    rm = random_model(rng)
    g = rm.graph
    refs = [n.ref for n in g.nodes()]
    for i in range(6):
        slots = {
            t: [random_notfree_expr(rng, refs), Not(Ref(rng.choice(refs)))]
            for t in ConditionType
        }
        decision = Decision.DENY if i % 2 else Decision.PERMIT
        rm.policies.create_policy(f"compound{i}", decision, slots)

    def named(expr):
        if isinstance(expr, Ref):
            return NameRef(g.node(expr.node).name)
        if isinstance(expr, Not):
            return Not(named(expr.inner))
        return type(expr)(tuple(map(named, expr.children)))

    doc = ModelDocument(
        nodes=[NodeDecl(n.name, n.labels, dict(n.properties)) for n in g.nodes()],
        edges=[EdgeDecl(g.node(a).name, rel, g.node(b).name) for a, rel, b in g.edges()],
        policies=[
            PolicyDecl(
                p.name,
                p.decision,
                p.score,
                {t: [named(e) for e in exprs] for t, exprs in p.conditions.items()},
            )
            for p in rm.policies
        ],
    )
    return serialize_model(doc)


# Padding that puts the forward references below across a 64-character cut.
_FILLER = "".join(f"node f{i} : Attribute\n" for i in range(6))

# Each model's text and a query on it.
MODELS = {
    "healthcare": (bundled_model_text(), ("John", "Write", "MR_1234")),
    "random": (random_model_text(7), ("p0", "p1", "p2")),
    "forward-reference": (
        "node a : X\npolicy Early permit { subject: late; action: a; object: a; }\n"
        "edge a -[HAS_ATTR]-> late\n" + _FILLER + "node late : X\n",
        ("a", "a", "a"),
    ),
}


def from_file(text, tmp_path, piece_chars=dsl.PIECE_CHARS):
    path = tmp_path / "model.abac"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(dsl, "PIECE_CHARS", piece_chars):
        return load_model_file(path)


LOADERS = {
    "load_model": lambda text, tmp_path: load_model(text),
    "load_model_file": from_file,
    "load_model_file_64": lambda text, tmp_path: from_file(text, tmp_path, 64),
    "load_document": lambda text, tmp_path: load_document(parse_model(text)),
}


def query(model, names):
    return AccessQuery(*map(model.graph.find_node, names))


def decide(model, names):
    q = query(model, names)
    for alg in CombiningAlgorithm:
        evaluate(model.policies, q, alg)


def explain(model, names):
    # As ``explain`` decides: one snapshot, its closures, then the matcher.
    snapshot = model.policies.policies()
    depth = snapshot.attr_depth
    closures = snapshot.closures(query(model, names), depth)
    combine(matches(snapshot, closures, depth), CombiningAlgorithm.DENY_OVERRIDES)


def serve(model, names):
    fields = dict(zip(("subject", "action", "object"), names))
    lines = [
        json.dumps({"id": "good", **fields}) + "\n",
        '{"id": "malformed", "subject": \n',
        json.dumps({"id": "unknown", **fields, "subject": "Ghost"}) + "\n",
    ]
    out = io.StringIO()
    serve_loop(model, CombiningAlgorithm.DENY_OVERRIDES, lines, out)
    errors = [json.loads(line)["error"] for line in out.getvalue().splitlines()]
    assert errors[0] is None and all(errors[1:]) and len(errors) == 3


USES = {"evaluate": decide, "explain": explain, "serve_loop": serve}


def assert_freed_at_del(load, use, names):
    """Loads a model, decides on it and deletes it, collector off: its
    graph and store must go at the ``del``, and nothing be left over."""
    with collector_off():
        model = load()
        use(model, names)
        graph, store = weakref.ref(model.graph), weakref.ref(model.policies)
        del model
        assert graph() is None and store() is None
        assert gc.collect() == 0


@pytest.mark.parametrize("use", USES)
@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("model", MODELS)
def test_model_freed_at_del(model, loader, use, tmp_path):
    text, names = MODELS[model]
    assert_freed_at_del(lambda: LOADERS[loader](text, tmp_path), USES[use], names)


@pytest.mark.parametrize("use", USES)
def test_bundled_model_freed_at_del(use):
    assert_freed_at_del(load_bundled_model, USES[use], MODELS["healthcare"][1])


FAILED_LOADS = {
    "unknown-edge-end": "node a : X\nedge a -[HAS_ATTR]-> ghost\n",
    "unknown-policy-node": "node a : X\npolicy P permit { subject: ghost; action: a; object: a; }\n",
    "has-attr-cycle": (
        "node a : X\nnode b : Y\nedge a -[HAS_ATTR]-> b\nedge b -[HAS_ATTR]-> a\n"
    ),
    "syntax": "node a : X\nnode b :\nedge a -[T]-> b\n",
    "forward-reference-unknown": (
        "node a : X\npolicy Early permit { subject: late; action: a; object: ghost; }\n"
        + _FILLER
        + "node late : X\n"
    ),
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", FAILED_LOADS.values(), ids=FAILED_LOADS)
def test_failed_load_leaves_nothing(text, loader, tmp_path):
    with collector_off():
        with pytest.raises(ModelLoadError):
            LOADERS[loader](text, tmp_path)
        assert gc.collect() == 0


def test_serve_leaves_the_collector_alone(tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.abac"
    path.write_text(bundled_model_text(), encoding="utf-8")
    line = b'{"id": "1", "subject": "John", "action": "Write", "object": "MR_1234"}\n'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(line)))
    frozen = gc.get_freeze_count()
    try:
        assert main(["serve", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "Permit"
        assert gc.get_freeze_count() == frozen
    finally:
        if gc.get_freeze_count() != frozen:
            # Keep a serve that froze the heap from changing later tests.
            gc.unfreeze()


LOAD_CASES = {
    "loads": bundled_model_text(),
    "model-error": FAILED_LOADS["unknown-policy-node"],
    "missing-file": None,
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", LOAD_CASES)
def test_cli_load_restores_the_collector_state(case, enabled, tmp_path):
    # The collector is paused while the command line front ends load a
    # model, and left as it was found, whether the load works or raises.
    path = tmp_path / "model.abac"
    if LOAD_CASES[case] is not None:
        path.write_text(LOAD_CASES[case], encoding="utf-8")
    seen = []

    def load(p):
        seen.append(gc.isenabled())
        return load_model_file(p)

    with mock.patch.object(cli, "load_model_file", load):
        was_on = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                cli._load(str(path))
            except cli._CliError:
                assert case != "loads"
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_on else gc.disable)()
    assert seen == [False]


# validate's exit code for each case; a missing file is a usage error.
VALIDATE_EXITS = {
    "loads": cli.EXIT_PERMIT, "model-error": cli.EXIT_DENY, "missing-file": cli.EXIT_ERROR
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", LOAD_CASES)
def test_validate_restores_the_collector_state(case, enabled, tmp_path, capsys):
    # validate loads with the collector paused, as the other front ends do,
    # and leaves it as it was found, whether the load works or raises.
    path = tmp_path / "model.abac"
    if LOAD_CASES[case] is not None:
        path.write_text(LOAD_CASES[case], encoding="utf-8")
    seen = []

    def load(p):
        seen.append(gc.isenabled())
        return load_model_file(p)

    with mock.patch.object(cli, "load_model_file", load):
        was_on = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["validate", str(path)]) == VALIDATE_EXITS[case]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_on else gc.disable)()
    assert seen == [False]


# Counts the collections of each generation in a fresh process that serves
# one request line from the model file named by its argument.
_COUNT_COLLECTIONS = """
import gc, sys
from graphabac.cli import main
counts = [0, 0, 0]
def count(phase, info):
    if phase == "start":
        counts[info["generation"]] += 1
gc.callbacks.append(count)
code = main(["serve", sys.argv[1]])
print(code, *counts, file=sys.stderr)
"""


def test_serve_on_policy_scan_runs_no_full_collection_before_it_replies(tmp_path):
    # The benchmark's largest model: with the collector on while it loaded,
    # one full collection walked every object the load had made, and over a
    # hundred young ones walked the newest.  Stdin holds one request, so
    # every collection up to the end of ``main`` ran before or for the
    # reply.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        import workloads
    finally:
        del sys.path[0]
    load = workloads.build("policy-scan", 1, bundled_model_text())
    path = tmp_path / "policy-scan.abac"
    path.write_text(load.model_text, encoding="utf-8")
    line = next(r.line for r in load.requests if r.kind == "valid")
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_COLLECTIONS, str(path)],
        input=line + "\n",
        capture_output=True,
        text=True,
    )
    code, young, middle, full = map(int, proc.stderr.split())
    assert json.loads(proc.stdout)["error"] is None
    assert (code, full) == (0, 0), proc.stderr
