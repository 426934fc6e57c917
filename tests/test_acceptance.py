"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS`` line on success
(run with ``pytest -s tests/test_acceptance.py`` to see them); a failed
assertion leaves the line unprinted, which reads as FAIL.
"""

import random
import statistics
import time

from graphabac import (
    AccessQuery,
    And,
    CombiningAlgorithm,
    ConditionType,
    Decision,
    Graph,
    HAS_ATTR,
    Not,
    Or,
    Policy,
    PolicyStore,
    Ref,
    combine,
    dnf_expand,
    evaluate,
    load_model,
    matching_policies,
    matching_policies_oracle,
    parse_model,
    serialize_model,
)
from graphabac.cypher import emit_cypher_data, emit_cypher_decision_query
from graphabac.errors import MissingConditionTypeError
from graphabac.matcher import match_single, query_closures
from graphabac.policy import compile_conditions

from randdocs import MALFORMED_CORPUS, random_document
from randmodel import (
    RandomModelConfig,
    matching_query,
    primitives_reaching,
    random_model,
    random_notfree_expr,
    random_query,
)
from test_cypher import script_structure
from test_dsl import model_fingerprint

SUB = ConditionType.SUB_CON
ACT = ConditionType.ACT_CON
OBJ = ConditionType.OBJ_CON

PERMIT = Decision.PERMIT
DENY = Decision.DENY


def report(n, name):
    print(f"\nACCEPTANCE {n} {name}: PASS")


def test_1_healthcare_golden(healthcare, query):
    start = time.perf_counter()
    expected = {
        ("John", "Write", "MR_1234"): PERMIT,
        ("Sue", "Read", "MR_1234"): PERMIT,
        ("Sue", "Write", "MR_1234"): DENY,
    }
    for names, want in expected.items():
        result = evaluate(
            healthcare.policies, query(*names), CombiningAlgorithm.DENY_OVERRIDES
        )
        assert result.decision is want, names
    assert time.perf_counter() - start < 1.0
    report(1, "healthcare-golden")


def test_2_matcher_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240817)
    mismatches = 0
    for trial in range(1000):
        cfg = RandomModelConfig(
            n_primitives=rng.randint(3, 8),
            n_attributes=rng.randint(4, 24),
            n_layers=rng.randint(1, 5),
            edge_factor=rng.uniform(0.8, 1.8),
            n_policies=rng.randint(1, 18),
            anchored_fraction=rng.uniform(0.2, 0.8),
            max_conditions_per_slot=rng.randint(1, 3),
        )
        model = random_model(rng, cfg)
        assert model.graph.node_count() <= 200
        assert model.graph.attr_depth <= 5
        for _ in range(10):
            q = random_query(rng, model)
            fast = matching_policies(model.policies, q)
            slow = matching_policies_oracle(model.policies, q)
            if fast != slow:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(2, "claim1-equivalence")


def test_3_validity_gate():
    rng = random.Random(99)
    model = random_model(rng, RandomModelConfig(n_policies=12))
    store = model.policies
    queries = [random_query(rng, model) for _ in range(20)]
    algs = list(CombiningAlgorithm)
    baseline = [
        evaluate(store, q, alg).decision for q in queries for alg in algs
    ]
    n_policies = len(store)
    candidates = list(range(model.graph.node_count()))
    leaks = 0
    for trial in range(1000):
        kept = rng.sample(list(ConditionType), rng.randint(1, 2))
        conditions = {
            t: {Ref(rng.choice(candidates))} for t in kept
        }
        try:
            store.create_policy(f"invalid{trial}", DENY, conditions)
            leaks += 1
        except MissingConditionTypeError:
            pass
    assert leaks == 0
    assert len(store) == n_policies
    after = [evaluate(store, q, alg).decision for q in queries for alg in algs]
    assert after == baseline
    report(3, "validity-gate")


def _match(name, decision, score=0, seq=0, lens=(1, 1, 1)):
    from graphabac.matcher import PolicyMatch

    empty = compile_conditions({t: frozenset() for t in ConditionType})
    pol = Policy(name, decision, score, seq, *empty)
    return PolicyMatch(pol, *lens)


def test_4_combining_algorithm_suite():
    DO = CombiningAlgorithm.DENY_OVERRIDES
    PO = CombiningAlgorithm.PERMIT_OVERRIDES
    FA = CombiningAlgorithm.FIRST_APPLICABLE
    MS = CombiningAlgorithm.MAX_SCORE_DENY_OVERRIDES
    SP = CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES
    empty = []
    all_permit = [_match("a", PERMIT, 2, 0), _match("b", PERMIT, 1, 1, (2, 1, 1))]
    mixed = [_match("a", PERMIT, 2, 0), _match("b", DENY, 1, 1, (2, 1, 1))]
    tied_score = [_match("a", PERMIT, 3, 0), _match("b", DENY, 3, 1)]
    score_gap = [_match("a", PERMIT, 5, 0), _match("b", DENY, 3, 1)]
    tied_len = [
        _match("a", PERMIT, 0, 0, (1, 1, 2)),
        _match("b", DENY, 0, 1, (2, 1, 1)),
        _match("c", PERMIT, 0, 2, (3, 3, 3)),
    ]
    len_gap = [_match("a", PERMIT, 0, 0), _match("b", DENY, 0, 1, (4, 4, 4))]
    deny_first = [_match("a", DENY, 0, 0), _match("b", PERMIT, 0, 1)]
    cases = [
        (DO, empty, DENY), (PO, empty, DENY), (FA, empty, DENY),
        (MS, empty, DENY), (SP, empty, DENY),
        (DO, all_permit, PERMIT), (PO, all_permit, PERMIT),
        (FA, all_permit, PERMIT), (MS, all_permit, PERMIT),
        (SP, all_permit, PERMIT),
        (DO, mixed, DENY), (PO, mixed, PERMIT), (FA, mixed, PERMIT),
        (FA, deny_first, DENY),
        (MS, tied_score, DENY), (MS, score_gap, PERMIT),
        (SP, tied_len, DENY), (SP, len_gap, PERMIT),
        (MS, mixed, PERMIT),  # max score 2 held by the Permit policy
        (SP, mixed, PERMIT),  # min total length 3 held by the Permit policy
        (SP, [_match("a", PERMIT, 0, 0, (2, 2, 2)), _match("b", DENY, 0, 1)], DENY),
    ]
    for i, (alg, matches, want) in enumerate(cases):
        got = combine(matches, alg).decision
        assert got is want, f"case {i}: {alg.value} -> {got}"
    report(4, "combining-suite")


def _negation_fixture(has_employee, has_suspended):
    g = Graph()
    s = g.add_node("worker", ("Primitive",))
    employee = g.add_node("Employee", ("Attribute",))
    suspended = g.add_node("Suspended", ("Attribute",))
    browse = g.add_node("Browse", ("Primitive",))
    portal = g.add_node("Company Portal", ("Primitive",))
    if has_employee:
        g.add_edge(s, HAS_ATTR, employee)
    if has_suspended:
        g.add_edge(s, HAS_ATTR, suspended)
    g.freeze()
    q = AccessQuery(s, browse, portal)
    base = {ACT: {Ref(browse)}, OBJ: {Ref(portal)}}

    native = PolicyStore(g)
    native.create_policy(
        "ActiveEmployees", PERMIT,
        {SUB: {Ref(employee), Not(Ref(suspended))}, **base},
    )
    rewrite = PolicyStore(g)
    rewrite.create_policy("Employees", PERMIT, {SUB: {Ref(employee)}, **base})
    rewrite.create_policy("Suspended", DENY, {SUB: {Ref(suspended)}, **base})
    return native, rewrite, q


def test_5_negation_rewrite_scenario():
    for has_employee in (False, True):
        for has_suspended in (False, True):
            native, rewrite, q = _negation_fixture(has_employee, has_suspended)
            alg = CombiningAlgorithm.DENY_OVERRIDES
            a = evaluate(native, q, alg).decision
            b = evaluate(rewrite, q, alg).decision
            assert a is b, (has_employee, has_suspended, a, b)
            assert a is (PERMIT if has_employee and not has_suspended else DENY)
    report(5, "negation-rewrite")


def test_6_dnf_expansion():
    # Named scenario: one compound policy expands to the two simple ones.
    g = Graph()
    names = ("Manager", "Senior", "Employee", "View", "Monthly Reports")
    refs = {n: g.add_node(n, ("Attribute",)) for n in names}
    g.freeze()
    compound = Policy(
        "Reports", PERMIT, 0, 0,
        *compile_conditions({
            SUB: frozenset(
                {
                    Or(
                        (
                            Ref(refs["Manager"]),
                            And((Ref(refs["Senior"]), Ref(refs["Employee"]))),
                        )
                    )
                }
            ),
            ACT: frozenset({Ref(refs["View"])}),
            OBJ: frozenset({Ref(refs["Monthly Reports"])}),
        }),
    )
    expanded = dnf_expand(compound)
    subs = sorted(
        frozenset(g.node(r.node).name for r in p.conditions[SUB]) for p in expanded
    )
    assert subs == [frozenset({"Manager"}), frozenset({"Employee", "Senior"})]
    for p in expanded:
        assert p.conditions[ACT] == {Ref(refs["View"])}
        assert p.conditions[OBJ] == {Ref(refs["Monthly Reports"])}
        assert p.decision is PERMIT

    # Randomized: compound matching == disjunction of expanded matching.
    rng = random.Random(606)
    mismatches = 0
    for trial in range(500):
        n = rng.randint(4, 12)
        rg = Graph()
        nodes = [rg.add_node(f"n{i}") for i in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            i, j = sorted(rng.sample(range(n), 2))
            rg.add_edge(nodes[i], HAS_ATTR, nodes[j])
        rg.freeze()
        pol = Policy(
            "c", PERMIT, 0, 0,
            *compile_conditions({
                t: frozenset(
                    random_notfree_expr(rng, nodes)
                    for _ in range(rng.randint(1, 2))
                )
                for t in ConditionType
            }),
        )
        parts = dnf_expand(pol)
        # A store holding the policy makes its leaves (and so every part's)
        # the condition nodes the closures are exact at.
        store = PolicyStore(rg)
        store.create_policy(pol.name, pol.decision, pol.conditions)
        for _ in range(3):
            q = AccessQuery(*(rng.choice(nodes) for _ in range(3)))
            closures = query_closures(store, q, rg.attr_depth)
            whole = match_single(pol, closures, rg.attr_depth) is not None
            split = any(
                match_single(p, closures, rg.attr_depth) is not None for p in parts
            )
            if whole != split:
                mismatches += 1
    assert mismatches == 0
    report(6, "dnf-expansion")


def test_7_cypher_goldens(healthcare, healthcare_text):
    script = emit_cypher_data(load_model(healthcare_text).graph)
    nodes, edges = script_structure(script)
    g = healthcare.graph
    assert nodes == {(":" + ":".join(n.labels), n.name) for n in g.nodes()}
    assert edges == {
        (g.node(a).name, rel, g.node(b).name) for a, rel, b in g.edges()
    }
    deny = emit_cypher_decision_query(CombiningAlgorithm.DENY_OVERRIDES, 5)
    assert "[:HAS_ATTR*0..5]" in deny
    assert (
        "case when count(pol) = 0 or 'Deny' in collect(pol.decision) "
        "then 'Deny' else 'Permit' end" in deny
    )
    shortest = emit_cypher_decision_query(
        CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES, 5
    )
    assert "order by plen asc limit 1" in shortest
    # Byte stability across repeated emission.
    assert emit_cypher_data(load_model(healthcare_text).graph) == script
    assert emit_cypher_decision_query(CombiningAlgorithm.DENY_OVERRIDES, 5) == deny
    report(7, "cypher-goldens")


def test_8_parser_round_trip():
    from graphabac.dsl import load_document

    rng = random.Random(808)
    for trial in range(500):
        doc = random_document(rng)
        text = serialize_model(doc)
        doc2 = parse_model(text)
        assert not doc2.errors, text
        assert serialize_model(doc2) == text
        assert model_fingerprint(load_document(doc)) == model_fingerprint(
            load_document(doc2)
        )
    for text in MALFORMED_CORPUS:
        doc = parse_model(text)
        assert doc.errors, text
        assert all(e.line >= 1 and e.col >= 1 for e in doc.errors)
    report(8, "parser-round-trip")


def test_9_desk_scale_performance():
    rng = random.Random(42)
    cfg = RandomModelConfig(
        n_primitives=2000,
        n_attributes=8000,
        n_layers=5,
        edge_factor=3.2,  # targets ~30k distinct HAS_ATTR edges
        n_policies=1000,
        anchored_fraction=0.5,
    )
    model = random_model(rng, cfg)
    assert model.graph.node_count() == 10_000
    assert model.graph.edge_count(HAS_ATTR) >= 25_000
    queries = [random_query(rng, model) for _ in range(100)]
    timings = []
    for q in queries:
        t0 = time.perf_counter()
        evaluate(model.policies, q, CombiningAlgorithm.DENY_OVERRIDES)
        timings.append(time.perf_counter() - t0)
    median = statistics.median(timings)
    assert median < 0.050, f"median {median * 1000:.1f} ms"
    report(9, "desk-scale-performance")


def test_9_desk_scale_matching_queries():
    # Uniform queries on test_9's model match almost nothing, so its timing
    # leaves out candidate checks and combining.  Here every second query is
    # built to match a stored policy, as in scripts/policy_sweep.py.
    rng = random.Random(42)
    cfg = RandomModelConfig(
        n_primitives=2000,
        n_attributes=8000,
        n_layers=5,
        edge_factor=3.2,
        n_policies=1000,
        anchored_fraction=0.5,
    )
    model = random_model(rng, cfg)
    reached_by = primitives_reaching(model)
    queries = [
        matching_query(rng, model, reached_by) if i % 2 else random_query(rng, model)
        for i in range(100)
    ]
    timings, matches = [], 0
    for q in queries:
        t0 = time.perf_counter()
        result = evaluate(model.policies, q, CombiningAlgorithm.DENY_OVERRIDES)
        timings.append(time.perf_counter() - t0)
        matches += len(result.matches)
    assert matches / len(queries) > 0.3, f"{matches} matches"
    median = statistics.median(timings)
    assert median < 0.050, f"median {median * 1000:.1f} ms"
    report(9, "desk-scale-matching-queries")
