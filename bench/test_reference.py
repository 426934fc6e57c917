"""The benchmark's reference answers agree with the engine's oracle and with
`evaluate` on small random models.

    python3 -m pytest -q bench/test_reference.py
"""

import itertools
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from reference import Reference  # noqa: E402

from graphabac import (  # noqa: E402
    AccessQuery,
    CombiningAlgorithm,
    evaluate,
    load_model,
    matching_policies,
    matching_policies_oracle,
)


def small(seed: int) -> workloads.Workload:
    return workloads.generated(
        "small", seed, n_prim=5, n_attr=14, n_layers=3, n_edges=30,
        n_policies=14, anchored_frac=0.6, compound_frac=0.5, n_requests=50,
    )


def test_algorithm_names_cover_the_engine():
    assert set(workloads.ALGORITHMS) == {a.value for a in CombiningAlgorithm}


@pytest.mark.parametrize("seed", range(12))
def test_reference_matches_oracle_and_evaluate(seed):
    wl = small(seed)
    ref = Reference(wl.spec)
    model = load_model(wl.model_text)
    g = model.graph
    assert ref.depth == g.attr_depth
    prims = [n for n, labels in wl.spec.nodes if "Primitive" in labels]
    for s, a, o in itertools.product(prims, repeat=3):
        q = AccessQuery(g.find_node(s), g.find_node(a), g.find_node(o))
        want = [(p.name, n) for p, n in ref.matches(s, a, o)]
        oracle = matching_policies_oracle(model.policies, q)
        assert [(m.policy.name, m.total_len) for m in oracle] == want
        fast = matching_policies(model.policies, q)
        assert [(m.policy.name, m.total_len) for m in fast] == want
        for alg in workloads.ALGORITHMS:
            got = evaluate(model.policies, q, CombiningAlgorithm(alg))
            names = tuple(m.policy.name for m in got.matches)
            assert (got.decision.value, names) == ref.decide(s, a, o, alg)


def test_small_models_exercise_compound_and_negative_only_slots():
    policies = [p for seed in range(12) for p in small(seed).spec.policies]
    exprs = [e for p in policies for slot in p.slots for e in slot]
    assert {e[0] for e in exprs if not isinstance(e, str)} == {"not", "and", "or"}
    assert any(slot and all(not isinstance(e, str) and e[0] == "not" for e in slot)
               for p in policies for slot in p.slots)


@pytest.mark.parametrize("seed", range(4))
def test_anchor_queries_match_their_policy(seed):
    wl = small(seed)
    ref = Reference(wl.spec)
    for p in wl.spec.policies:
        if p.anchors:
            assert p.name in [m.name for m, _ in ref.matches(*p.anchors)]


def test_reader_round_trips_generated_text():
    spec = small(3).spec
    back = workloads.read_model_text(workloads.model_text(spec))
    assert back.nodes == spec.nodes
    assert back.edges == spec.edges
    assert [(p.name, p.permit, p.score, p.slots) for p in back.policies] == [
        (p.name, p.permit, p.score, p.slots) for p in spec.policies
    ]


def test_reference_matches_evaluate_on_bundled_healthcare():
    text = (ROOT / "src" / "graphabac" / "data" / "healthcare.abac").read_text()
    spec = workloads.read_model_text(text)
    ref = Reference(spec)
    model = load_model(text)
    g = model.graph
    names = [n for n, _ in spec.nodes]
    assert sorted(names) == sorted(node.name for node in g.nodes())
    for s, a, o in itertools.product(names, repeat=3):
        q = AccessQuery(g.find_node(s), g.find_node(a), g.find_node(o))
        for alg in workloads.ALGORITHMS:
            got = evaluate(model.policies, q, CombiningAlgorithm(alg))
            assert (got.decision.value, tuple(m.policy.name for m in got.matches)) == ref.decide(s, a, o, alg)


def test_serve_small_malformed_requests():
    text = (ROOT / "src" / "graphabac" / "data" / "healthcare.abac").read_text()
    wl = workloads.serve_small(7, text, n_requests=4000)
    kinds = [r.kind for r in wl.requests]
    share = 1 - kinds.count("valid") / len(kinds)
    assert 0.03 < share < 0.07
    assert {"bad-json", "unknown-node", "unknown-algorithm"} <= set(kinds)
    assert all("\n" not in r.line and r.line.strip() for r in wl.requests)
