import itertools
import math
import random
import sys
import threading

import pytest

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
    evaluate,
    matching_policies,
    matching_policies_oracle,
)
from graphabac.errors import (
    DanglingConditionRefError,
    DuplicatePolicyError,
    MissingConditionTypeError,
    NotFrozenError,
)
from graphabac.matcher import match_single, match_single_oracle
from graphabac.policy import PolicySnapshot, ref_leaves

from randmodel import RandomModelConfig, dnf_term_count, random_model, random_query

SUB = ConditionType.SUB_CON
ACT = ConditionType.ACT_CON
OBJ = ConditionType.OBJ_CON


def satisfies(g, x, expr, depth):
    """True iff the slot ``{expr}`` holds for primitive ``x``, checked through
    ``match_single`` with ``x`` in every slot of the query, over the closures
    of a store that holds only the probe policy."""
    store = PolicyStore(g)
    pol = store.create_policy("probe", Decision.PERMIT, {t: {expr} for t in ConditionType})
    closures = store.policies().closures(AccessQuery(x, x, x), depth)
    return match_single(pol, closures, depth) is not None


class TestIsSatisfied:
    def test_attribute_via_edge(self, healthcare):
        g = healthcare.graph
        assert satisfies(g, g.find_node("Sue"), Ref(g.find_node("Doctor")), 5)

    def test_self_always_satisfied(self, healthcare):
        g = healthcare.graph
        read = g.find_node("Read")
        assert satisfies(g, read, Ref(read), 5)

    def test_unreachable(self, healthcare):
        g = healthcare.graph
        assert not satisfies(g, g.find_node("Sue"), Ref(g.find_node("Hospital Staff")), 5)


class TestEvalConditionExpr:
    def test_not_of_unreachable_is_true(self, healthcare):
        g = healthcare.graph
        sue = g.find_node("Sue")
        staff = g.find_node("Hospital Staff")
        assert satisfies(g, sue, Not(Ref(staff)), 5)

    def test_not_of_self_is_false(self, healthcare):
        g = healthcare.graph
        sue = g.find_node("Sue")
        assert not satisfies(g, sue, Not(Ref(sue)), 5)

    def test_or_of_and(self, healthcare):
        g = Graph()
        s = g.add_node("s", ("Primitive",))
        manager = g.add_node("Manager", ("Attribute",))
        senior = g.add_node("Senior", ("Attribute",))
        employee = g.add_node("Employee", ("Attribute",))
        g.add_edge(s, HAS_ATTR, senior)
        g.add_edge(s, HAS_ATTR, employee)
        g.freeze()
        expr = Or((Ref(manager), And((Ref(senior), Ref(employee)))))
        assert satisfies(g, s, expr, 5)
        assert not satisfies(g, s, Ref(manager), 5)


class TestMatchingPolicies:
    def test_john_write_record(self, healthcare, query):
        matches = matching_policies(healthcare.policies, query("John", "Write", "MR_1234"))
        assert [m.policy.name for m in matches] == ["Policy2"]

    def test_sue_write_record_no_match(self, healthcare, query):
        assert matching_policies(healthcare.policies, query("Sue", "Write", "MR_1234")) == []

    def test_sue_read_record(self, healthcare, query):
        matches = matching_policies(healthcare.policies, query("Sue", "Read", "MR_1234"))
        assert [m.policy.name for m in matches] == ["Policy3"]

    def test_requires_frozen_graph(self):
        g = Graph()
        a = g.add_node("a", ("Primitive",))
        store = PolicyStore(g)
        with pytest.raises(NotFrozenError):
            matching_policies(store, AccessQuery(a, a, a))

    def test_ordered_by_seq(self, healthcare, query):
        # Build a store where two policies match the same query.
        g = healthcare.graph
        store = PolicyStore(g)
        conds = {
            SUB: {Ref(g.find_node("Doctor"))},
            ACT: {Ref(g.find_node("Full Access"))},
            OBJ: {Ref(g.find_node("Hospital Records"))},
        }
        store.create_policy("B", Decision.PERMIT, conds)
        store.create_policy("A", Decision.DENY, conds)
        matches = matching_policies(store, query("John", "Write", "MR_1234"))
        assert [m.policy.name for m in matches] == ["B", "A"]


def policy_length(store, q, name):
    closures = store.policies().closures(q, store.graph.attr_depth)
    return match_single(store.get(name), closures, store.graph.attr_depth).total_len


class TestPolicyLength:
    def test_policy2_length_seven(self, healthcare, query):
        q = query("John", "Write", "MR_1234")
        assert policy_length(healthcare.policies, q, "Policy2") == 7
        (m,) = matching_policies(healthcare.policies, q)
        assert (m.len_sub, m.len_act, m.len_obj) == (2, 2, 3)

    def test_policy3_length_five(self, healthcare, query):
        q = query("Sue", "Read", "MR_1234")
        assert policy_length(healthcare.policies, q, "Policy3") == 5
        (m,) = matching_policies(healthcare.policies, q)
        assert (m.len_sub, m.len_act, m.len_obj) == (2, 1, 2)

    def test_self_conditions_give_three(self, healthcare, query):
        g = healthcare.graph
        store = PolicyStore(g)
        q = query("John", "Write", "MR_1234")
        store.create_policy(
            "Self",
            Decision.PERMIT,
            {SUB: {Ref(q.sub)}, ACT: {Ref(q.act)}, OBJ: {Ref(q.obj)}},
        )
        assert policy_length(store, q, "Self") == 3


class TestOracle:
    def test_agrees_on_healthcare(self, healthcare, query):
        for names in (
            ("John", "Write", "MR_1234"),
            ("Sue", "Read", "MR_1234"),
            ("Sue", "Write", "MR_1234"),
            ("Peter", "Read", "MR_1234"),
        ):
            q = query(*names)
            assert matching_policies_oracle(healthcare.policies, q) == matching_policies(
                healthcare.policies, q
            )

    def test_empty_store(self, healthcare, query):
        store = PolicyStore(healthcare.graph)
        assert matching_policies_oracle(store, query("John", "Write", "MR_1234")) == []

    def test_requires_frozen_graph(self):
        g = Graph()
        a = g.add_node("a", ("Primitive",))
        with pytest.raises(NotFrozenError):
            matching_policies_oracle(PolicyStore(g), AccessQuery(a, a, a))

    def test_policy_with_an_empty_slot_never_matches(self, healthcare, query):
        # create_policy rejects such a policy, so it is built by hand.
        g = healthcare.graph
        q = query("John", "Write", "MR_1234")
        pol = Policy("Empty", Decision.PERMIT, 0, 0, ((q.sub,), (), (q.obj,)), ((), (), ()))
        assert match_single_oracle(g, pol, q, g.attr_depth) is None

    def test_random_10_node_models(self):
        rng = random.Random(42)
        cfg = RandomModelConfig(n_primitives=4, n_attributes=6, n_layers=2, n_policies=6)
        for _ in range(30):
            model = random_model(rng, cfg)
            for _ in range(5):
                q = random_query(rng, model)
                assert matching_policies(model.policies, q) == matching_policies_oracle(
                    model.policies, q
                )

    def test_random_compound_slots(self):
        # Slots mix Ref, Not, And and Or, including negation-only slots, so
        # the compound branch of the closure matcher is checked against the
        # path-enumeration oracle, not just the count gate.
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(4, 7)
            g = Graph()
            nodes = [g.add_node(f"n{i}") for i in range(n)]
            for _ in range(rng.randint(0, 2 * n)):
                i, j = sorted(rng.sample(range(n), 2))
                g.add_edge(nodes[i], HAS_ATTR, nodes[j])
            g.freeze()
            store = PolicyStore(g)
            for k in range(5):
                store.create_policy(
                    f"p{k}",
                    rng.choice((Decision.PERMIT, Decision.DENY)),
                    {t: _random_slot(rng, nodes) for t in ConditionType},
                )
            for _ in range(8):
                q = AccessQuery(*(rng.choice(nodes) for _ in range(3)))
                assert matching_policies(store, q) == matching_policies_oracle(store, q)


def _random_expr(rng, nodes, max_depth=2):
    if max_depth == 0 or rng.random() < 0.4:
        return Ref(rng.choice(nodes))
    kind = rng.choice((Not, And, Or))
    if kind is Not:
        return Not(_random_expr(rng, nodes, max_depth - 1))
    return kind(tuple(_random_expr(rng, nodes, max_depth - 1) for _ in range(2)))


def _random_slot(rng, nodes):
    if rng.random() < 0.2:
        return {Not(Ref(rng.choice(nodes))) for _ in range(rng.randint(1, 2))}
    return {_random_expr(rng, nodes) for _ in range(rng.randint(1, 3))}


def _shared_expr(rng, nodes, k):
    """An expression of up to ``k`` operators whose parts reuse earlier
    parts: each operator takes its children from a pool of the leaves and
    the operators made so far, so subtrees are shared, some at several
    depths.  Sometimes a chain ``x = And((x, x))`` (or ``Or``) instead."""
    if rng.random() < 0.25:
        x, kind = Ref(rng.choice(nodes)), rng.choice((And, Or))
        for _ in range(k):
            x = kind((x, x))
        return x
    pool = [Ref(n) for n in rng.sample(nodes, 3)]
    for _ in range(k):
        kind = rng.choice((Not, And, Or))
        pool.append(Not(rng.choice(pool)) if kind is Not else kind(tuple(rng.choices(pool, k=2))))
    return pool[-1]


def _copy(expr):
    """An equal expression made of new objects, shared parts copied apart."""
    if isinstance(expr, Ref):
        return Ref(expr.node)
    if isinstance(expr, Not):
        return Not(_copy(expr.inner))
    return type(expr)(tuple(_copy(c) for c in expr.children))


class TestSharedSubtrees:
    def test_shared_subtrees_and_equal_copies_agree_with_oracle(self):
        # Slots hold trees that share subtrees, the same object twice, and
        # equal trees made of distinct objects, which are one expression.
        from graphabac import dnf_expand
        from graphabac.errors import NegationNotExpandableError

        rng = random.Random(2106)
        expanded = 0
        for _ in range(30):
            n = rng.randint(4, 7)
            g = Graph()
            nodes = [g.add_node(f"n{i}") for i in range(n)]
            for _ in range(rng.randint(0, 2 * n)):
                i, j = sorted(rng.sample(range(n), 2))
                g.add_edge(nodes[i], HAS_ATTR, nodes[j])
            g.freeze()
            store = PolicyStore(g)
            for k in range(5):
                conditions = {}
                for t in ConditionType:
                    exprs = [_shared_expr(rng, nodes, rng.randint(1, 6))]
                    exprs += rng.sample([Ref(rng.choice(nodes)), exprs[0], _copy(exprs[0])], 2)
                    conditions[t] = exprs
                pol = store.create_policy(f"p{k}", rng.choice(list(Decision)), conditions)
                distinct = {t: frozenset(exprs) for t, exprs in conditions.items()}
                assert pol.conditions == distinct
                for exprs, compiled in zip(distinct.values(), pol.compound):
                    assert len(compiled[0]) == sum(not isinstance(e, Ref) for e in exprs)
                try:
                    count = len(dnf_expand(pol))
                except NegationNotExpandableError:
                    continue
                terms = [dnf_term_count(e) for exprs in distinct.values() for e in exprs]
                assert count == math.prod(terms)
                expanded += 1
            for _ in range(8):
                q = AccessQuery(*(rng.choice(nodes) for _ in range(3)))
                oracle = matching_policies_oracle(store, q)
                for alg in CombiningAlgorithm:
                    assert evaluate(store, q, alg) == combine(oracle, alg)
        assert expanded > 5


class TestProperties:
    def test_monotone_under_new_edges(self):
        # Adding a HAS_ATTR edge never removes a Not-free match (at a
        # traversal depth at least as large as before).  A frozen graph
        # cannot change, so each trial builds the graph again with the
        # extra edge and a new store holding the same policies.
        rng = random.Random(11)
        cfg = RandomModelConfig(n_primitives=4, n_attributes=8, n_layers=3, n_policies=8)
        grew = 0
        for trial in range(20):
            model = random_model(random.Random(trial), cfg)
            q = random_query(rng, model)
            g = model.graph
            before = {m.policy.name for m in matching_policies(model.policies, q)}
            candidates = [
                (a, b)
                for a in range(g.node_count())
                for b in range(g.node_count())
                if a != b and not g.has_edge(a, HAS_ATTR, b) and _forward(g, a, b)
            ]
            if not candidates:
                continue
            a, b = rng.choice(candidates)
            g2 = Graph()
            for node in g.nodes():
                g2.add_node(node.name, node.labels, node.properties)
            for src, rel, dst in (*g.edges(), (a, HAS_ATTR, b)):
                g2.add_edge(src, rel, dst)
            g2.freeze()
            assert g2.attr_depth >= g.attr_depth
            store = PolicyStore(g2)
            for p in model.policies.policies():
                store.create_policy(p.name, p.decision, p.conditions, p.score)
            matches = matching_policies(store, q)
            after = {m.policy.name for m in matches}
            assert before <= after
            assert matches == matching_policies_oracle(store, q)
            grew += after > before
        assert grew > 0

    def test_zero_length_reflexivity(self):
        rng = random.Random(5)
        model = random_model(rng)
        q = random_query(rng, model)
        store = PolicyStore(model.graph)
        # A fresh store over the same frozen graph; conditions are the query itself.
        store.create_policy(
            "exact",
            Decision.PERMIT,
            {SUB: {Ref(q.sub)}, ACT: {Ref(q.act)}, OBJ: {Ref(q.obj)}},
        )
        matches = matching_policies(store, q)
        assert [m.policy.name for m in matches] == ["exact"]
        assert matches[0].total_len == 3


def _forward(g, a, b):
    # Edge a->b keeps the HAS_ATTR subgraph acyclic iff b cannot reach a.
    return a not in g.attribute_closure(b, g.node_count())


class TestCompoundMatching:
    def build(self):
        g = Graph()
        s1 = g.add_node("jsmith", ("Primitive",))
        s2 = g.add_node("mallory", ("Primitive",))
        employee = g.add_node("Employee", ("Attribute",))
        suspended = g.add_node("Suspended", ("Attribute",))
        browse = g.add_node("Browse", ("Primitive",))
        portal = g.add_node("Company Portal", ("Primitive",))
        g.add_edge(s1, HAS_ATTR, employee)
        g.add_edge(s2, HAS_ATTR, employee)
        g.add_edge(s2, HAS_ATTR, suspended)
        g.freeze()
        store = PolicyStore(g)
        store.create_policy(
            "ActiveEmployees",
            Decision.PERMIT,
            {
                SUB: {Ref(employee), Not(Ref(suspended))},
                ACT: {Ref(browse)},
                OBJ: {Ref(portal)},
            },
        )
        return g, store, s1, s2, browse, portal

    def test_negation_gates_matching(self):
        g, store, s1, s2, browse, portal = self.build()
        assert [m.policy.name for m in matching_policies(store, AccessQuery(s1, browse, portal))]
        assert not matching_policies(store, AccessQuery(s2, browse, portal))

    def test_compound_slot_length_uses_true_leaves(self):
        g, store, s1, s2, browse, portal = self.build()
        (m,) = matching_policies(store, AccessQuery(s1, browse, portal))
        assert m.len_sub == 2  # Employee at one hop, plus the condition edge

    def test_pure_negation_slot_length_is_depth_plus_one(self):
        g = Graph()
        s = g.add_node("s", ("Primitive",))
        bad = g.add_node("Blocked", ("Attribute",))
        act = g.add_node("Go", ("Primitive",))
        obj = g.add_node("Door", ("Primitive",))
        g.freeze()
        store = PolicyStore(g)
        store.create_policy(
            "NotBlocked",
            Decision.PERMIT,
            {SUB: {Not(Ref(bad))}, ACT: {Ref(act)}, OBJ: {Ref(obj)}},
        )
        (m,) = matching_policies(store, AccessQuery(s, act, obj), depth=4)
        assert m.len_sub == 5  # depth 4 + 1
        oracle = match_single_oracle(g, store.get("NotBlocked"), AccessQuery(s, act, obj), 4)
        assert oracle == m

    def test_match_single_agrees_with_oracle_on_compound(self):
        g, store, s1, s2, browse, portal = self.build()
        pol = store.get("ActiveEmployees")
        for s in (s1, s2):
            q = AccessQuery(s, browse, portal)
            closures = store.policies().closures(q, g.attr_depth)
            assert match_single(pol, closures, g.attr_depth) == match_single_oracle(
                g, pol, q, g.attr_depth
            )


def scan_matches(store, q, depth=None):
    """Test-local full scan: ``match_single`` over every stored policy."""
    if depth is None:
        depth = store.graph.attr_depth
    closures = store.policies().closures(q, depth)
    return [m for p in store.policies() if (m := match_single(p, closures, depth))]


class TestIndexDifferential:
    def test_indexed_scan_and_oracle_agree(self):
        # Random models from randmodel, grown one policy at a time with
        # simple, compound and negation-only slots, so the rebuilt index
        # is checked after every insertion, at every depth up to the graph's.
        rng = random.Random(7305)
        algorithms = list(CombiningAlgorithm)
        compared = matched = 0
        for trial in range(30):
            cfg = RandomModelConfig(
                n_primitives=rng.randint(3, 6),
                n_attributes=rng.randint(4, 14),
                n_layers=rng.randint(1, 4),
                n_policies=rng.randint(0, 8),
                max_conditions_per_slot=rng.randint(1, 3),
            )
            model = random_model(rng, cfg)
            g, store = model.graph, model.policies
            nodes = list(range(g.node_count()))
            for k in range(6):
                anchored = random_query(rng, model)
                if rng.random() < 0.5:
                    slots = {t: _random_slot(rng, nodes) for t in ConditionType}
                else:
                    slots = {}
                    for t, anchor in zip(ConditionType, anchored):
                        reach = sorted(g.attribute_closure(anchor, g.attr_depth))
                        picks = rng.sample(reach, rng.randint(1, min(3, len(reach))))
                        slots[t] = {Ref(n) for n in picks}
                store.create_policy(
                    f"extra{k}",
                    rng.choice((Decision.PERMIT, Decision.DENY)),
                    slots,
                    score=rng.randint(0, 3),
                )
                for q in (anchored, random_query(rng, model), random_query(rng, model)):
                    depth = rng.choice((None, *range(g.attr_depth + 1)))
                    indexed = matching_policies(store, q, depth)
                    assert indexed == scan_matches(store, q, depth)
                    assert indexed == matching_policies_oracle(store, q, depth)
                    for alg in algorithms:
                        result = evaluate(store, q, alg, depth)
                        assert result == combine(scan_matches(store, q, depth), alg)
                        assert result == combine(matching_policies_oracle(store, q, depth), alg)
                    compared += 1
                    matched += bool(indexed)
        # The comparison means something only if many queries match.
        assert compared == 540
        assert matched > 100


    def test_candidates_are_the_policies_with_every_top_level_ref_reached(self):
        # The key index finds a policy by one top-level ref and checks the
        # rest; compare its candidates with that contract computed directly.
        rng = random.Random(5120)
        compared = kept = 0
        for trial in range(30):
            cfg = RandomModelConfig(
                n_primitives=rng.randint(3, 6),
                n_attributes=rng.randint(4, 14),
                n_layers=rng.randint(1, 4),
                n_policies=rng.randint(0, 12),
                max_conditions_per_slot=rng.randint(1, 3),
            )
            model = random_model(rng, cfg)
            g, store = model.graph, model.policies
            nodes = list(range(g.node_count()))
            for k in range(3):
                slots = {t: _random_slot(rng, nodes) for t in ConditionType}
                store.create_policy(f"extra{k}", Decision.PERMIT, slots)
            for _ in range(6):
                q = random_query(rng, model)
                closures = store.policies().closures(q, rng.randint(0, g.attr_depth))
                expected = [
                    p.seq
                    for p in store.policies()
                    if all(
                        e.node in closure
                        for closure, exprs in zip(closures, p.conditions.values())
                        for e in exprs
                        if isinstance(e, Ref)
                    )
                ]
                assert [p.seq for p in store.policies().candidates(closures)] == expected
                compared += 1
                kept += len(expected)
        assert compared == 180
        assert kept > 100

    def test_rebuilt_snapshot_posts_each_policy_once(self):
        # Rounds of inserts, then queries.  Each round rebuilds the snapshot
        # in full, posting every policy, old and new, exactly once, and
        # equal to one built fresh from the store; the queries of a round
        # share it, and a rejected insert keeps it.
        rng = random.Random(2911)
        model = random_model(rng, RandomModelConfig(n_attributes=30, n_policies=10))
        g, store = model.graph, model.policies
        nodes = list(range(g.node_count()))
        previous = None
        for r in range(16):
            for k in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    # Only condition nodes the store has, so no new one.
                    slots = rng.choice(list(store)).conditions
                else:
                    slots = {t: _random_slot(rng, nodes) for t in ConditionType}
                store.create_policy(f"r{r}.{k}", rng.choice(list(Decision)), slots)
            snapshot = store.policies()
            for _ in range(4):
                q = random_query(rng, model)
                assert matching_policies(store, q) == matching_policies_oracle(store, q)
                assert store.policies() is snapshot
            with pytest.raises(DuplicatePolicyError):
                store.create_policy(f"r{r}.0", Decision.PERMIT, slots)
            with pytest.raises(DanglingConditionRefError):
                store.create_policy("Dangling", Decision.DENY, {**slots, SUB: {Ref(-1)}})
            assert store.policies() is snapshot
            posted = [p for keys in snapshot.keys for ps in keys.values() for p in ps]
            assert sorted(p.seq for p in posted + snapshot.residual) == list(range(len(store)))
            assert snapshot is not previous and len(snapshot) == len(store)
            fresh = PolicySnapshot(g, tuple(store))
            assert all(p is store.get(p.name) for p in posted + snapshot.residual)
            assert snapshot.keys == fresh.keys
            assert snapshot.residual == fresh.residual
            assert snapshot.adjacency == fresh.adjacency
            previous = snapshot


class TestIndexEdgeCases:
    def build(self):
        g = Graph()
        s = g.add_node("s", ("Primitive",))
        a1 = g.add_node("A1", ("Attribute",))
        a2 = g.add_node("A2", ("Attribute",))
        act = g.add_node("act", ("Primitive",))
        obj = g.add_node("obj", ("Primitive",))
        pol = g.add_node("PolicyNode", ("Policy",))
        g.add_edge(s, HAS_ATTR, a1)
        g.add_edge(a1, HAS_ATTR, a2)
        g.add_edge(obj, HAS_ATTR, a1)
        g.freeze()
        return g, s, a1, a2, act, obj, pol

    def test_each_policy_is_posted_once_under_its_rarest_ref(self):
        # Two source paths reach A1 and A2 (from s and obj), one reaches
        # each source.  Ties go to the earlier slot, then the lower ref.
        g, s, a1, a2, act, obj, pol = self.build()
        assert [g.path_counts()[n] for n in (s, a1, a2, act, obj)] == [1, 2, 2, 1, 1]
        store = PolicyStore(g)
        store.create_policy(
            "OnAct", Decision.PERMIT, {SUB: {Ref(a1), Ref(a2)}, ACT: {Ref(act)}, OBJ: {Ref(a1)}}
        )
        store.create_policy(
            "OnS", Decision.PERMIT, {SUB: {Ref(s)}, ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        )
        store.create_policy(
            "OnA1",
            Decision.DENY,
            {SUB: {Ref(a2), Ref(a1)}, ACT: {Or((Ref(act), Ref(obj)))}, OBJ: {Ref(a1)}},
        )
        store.create_policy(
            "NoKey", Decision.DENY, {SUB: {Not(Ref(a2))}, ACT: {Not(Ref(s))}, OBJ: {Not(Ref(s))}}
        )
        matching_policies(store, AccessQuery(s, act, obj))
        posted = {
            (t, n): [p.seq for p in ps]
            for t, keys in zip(ConditionType, store.policies().keys)
            for n, ps in keys.items()
        }
        assert posted == {(ACT, act): [0], (SUB, s): [1], (SUB, a1): [2]}
        assert [p.seq for p in store.policies().residual] == [3]

    def test_empty_store_snapshot_matches_nothing(self):
        g, s, a1, a2, act, obj, pol = self.build()
        store = PolicyStore(g)
        snapshot = store.policies()
        assert snapshot == () and snapshot.keys == ({}, {}, {}) and snapshot.residual == []
        q = AccessQuery(s, act, obj)
        assert snapshot.candidates(snapshot.closures(q, g.attr_depth)) == []
        assert matching_policies(store, q) == []

    def test_rejected_policy_leaves_no_trace(self):
        g, s, a1, a2, act, obj, pol = self.build()
        store = PolicyStore(g)
        store.create_policy(
            "P0", Decision.PERMIT, {SUB: {Ref(a1)}, ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        )
        q = AccessQuery(s, act, obj)
        before = matching_policies(store, q)
        assert [m.policy.name for m in before] == ["P0"]
        exact = {SUB: {Ref(s)}, ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        with pytest.raises(DuplicatePolicyError):
            store.create_policy("P0", Decision.DENY, exact)
        assert matching_policies(store, q) == before
        with pytest.raises(MissingConditionTypeError):
            store.create_policy("Missing", Decision.DENY, {SUB: {Ref(s)}, ACT: {Ref(act)}})
        assert matching_policies(store, q) == before
        with pytest.raises(DanglingConditionRefError):
            store.create_policy("Dangling", Decision.DENY, {**exact, OBJ: {Ref(obj), Ref(999)}})
        assert matching_policies(store, q) == before
        with pytest.raises(DanglingConditionRefError):
            store.create_policy("OnPolicy", Decision.DENY, {**exact, SUB: {Ref(s), Ref(pol)}})
        assert matching_policies(store, q) == before
        assert len(store) == 1
        p1 = store.create_policy("P1", Decision.DENY, exact)
        assert p1.seq == 1
        assert store.policies()[1] is p1
        after = matching_policies(store, q)
        assert [m.policy.name for m in after] == ["P0", "P1"]
        assert after == matching_policies_oracle(store, q)

    def test_one_node_in_two_slots(self):
        g, s, a1, a2, act, obj, pol = self.build()
        store = PolicyStore(g)
        store.create_policy(
            "Both", Decision.PERMIT, {SUB: {Ref(a1)}, ACT: {Ref(act)}, OBJ: {Ref(a1)}}
        )
        both = AccessQuery(s, act, obj)
        (m,) = matching_policies(store, both)
        assert (m.len_sub, m.len_act, m.len_obj) == (2, 1, 2)
        assert [m] == matching_policies_oracle(store, both)
        # The subject alone reaching A1 counts one hit of the three required.
        sub_only = AccessQuery(s, act, act)
        assert matching_policies(store, sub_only) == []
        assert matching_policies_oracle(store, sub_only) == []

    def test_condition_on_query_primitive(self):
        g, s, a1, a2, act, obj, pol = self.build()
        store = PolicyStore(g)
        store.create_policy(
            "Self", Decision.PERMIT, {SUB: {Ref(s)}, ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        )
        q = AccessQuery(s, act, obj)
        (m,) = matching_policies(store, q)
        assert (m.len_sub, m.len_act, m.len_obj) == (1, 1, 1)
        assert [m] == matching_policies_oracle(store, q)
        for depth in range(g.attr_depth + 1):
            assert matching_policies(store, q, depth) == [m]

    def test_depth_override_agrees_with_oracle(self):
        g, s, a1, a2, act, obj, pol = self.build()
        assert g.attr_depth == 2
        store = PolicyStore(g)
        base = {ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        store.create_policy("Hop0", Decision.PERMIT, {SUB: {Ref(s)}, **base})
        store.create_policy("Hop1", Decision.DENY, {SUB: {Ref(a1)}, **base})
        store.create_policy("Hop2", Decision.PERMIT, {SUB: {Ref(a2)}, **base})
        store.create_policy("Hop1And2", Decision.DENY, {SUB: {Ref(a1), Ref(a2)}, **base})
        store.create_policy("NotHop2", Decision.PERMIT, {SUB: {Not(Ref(a2))}, **base})
        q = AccessQuery(s, act, obj)
        expected = {
            0: ["Hop0", "NotHop2"],
            1: ["Hop0", "Hop1", "NotHop2"],
            2: ["Hop0", "Hop1", "Hop2", "Hop1And2"],
        }
        for depth, names in expected.items():
            got = matching_policies(store, q, depth)
            assert [m.policy.name for m in got] == names, depth
            assert got == matching_policies_oracle(store, q, depth)

    def test_unreached_top_level_ref_is_not_a_candidate(self):
        # A compound policy is posted under its plain top-level refs, so the
        # count rules it out before match_single runs.
        g, s, a1, a2, act, obj, pol = self.build()
        store = PolicyStore(g)
        store.create_policy(
            "Compound",
            Decision.PERMIT,
            {SUB: {Ref(a2), Or((Ref(a1), Ref(obj)))}, ACT: {Ref(act)}, OBJ: {Ref(obj)}},
        )
        q = AccessQuery(s, act, obj)
        snapshot = store.policies()
        assert snapshot.candidates(snapshot.closures(q, 1)) == []
        assert matching_policies(store, q, 1) == [] == matching_policies_oracle(store, q, 1)
        assert [p.seq for p in snapshot.candidates(snapshot.closures(q, 2))] == [0]
        (m,) = matching_policies(store, q, 2)
        assert [m] == matching_policies_oracle(store, q, 2)

    def test_policy_without_top_level_ref_is_always_a_candidate(self):
        g, s, a1, a2, act, obj, pol = self.build()
        store = PolicyStore(g)
        store.create_policy(
            "NoRefs",
            Decision.PERMIT,
            {
                SUB: {Not(Ref(a2))},
                ACT: {Or((Ref(act), Ref(obj)))},
                OBJ: {Or((Ref(a1), Ref(a2)))},
            },
        )
        queries = (AccessQuery(s, act, obj), AccessQuery(act, act, act), AccessQuery(obj, s, a1))
        snapshot = store.policies()
        for depth in range(g.attr_depth + 1):
            for q in queries:
                candidates = snapshot.candidates(snapshot.closures(q, depth))
                assert [p.seq for p in candidates] == [0]
                got = matching_policies(store, q, depth)
                assert got == matching_policies_oracle(store, q, depth)
        (m,) = matching_policies(store, queries[0], 1)
        assert m.policy.name == "NoRefs"


class TestTrimmedClosures:
    def test_exact_at_every_condition_node(self):
        # Each slot's closure over its trimmed copy is the full closure cut
        # to the start and the nodes that reach a condition node of that
        # slot, at every depth, on models whose stores mix simple,
        # compound and negation-only slots.
        rng = random.Random(4417)
        compared = trimmed_away = 0
        for trial in range(25):
            # Few policies on many attributes, so a good share of the
            # nodes in reach lead to no condition node and are trimmed.
            cfg = RandomModelConfig(
                n_primitives=rng.randint(3, 6),
                n_attributes=rng.randint(10, 30),
                n_layers=rng.randint(2, 5),
                n_policies=rng.randint(0, 2),
            )
            model = random_model(rng, cfg)
            g, store = model.graph, model.policies
            nodes = list(range(g.node_count()))
            for k in range(2):
                slots = {t: _random_slot(rng, nodes) for t in ConditionType}
                store.create_policy(f"extra{k}", Decision.PERMIT, slots)
            conditions = {
                t: {leaf.node for p in store for e in p.conditions[t] for leaf in ref_leaves(e)}
                for t in ConditionType
            }
            reach = {n: g.attribute_closure(n, g.attr_depth).keys() for n in nodes}
            for depth in range(g.attr_depth + 1):
                q = random_query(rng, model)
                closures = store.policies().closures(q, depth)
                for t, start, closure in zip(ConditionType, q, closures):
                    full = g.attribute_closure(start, depth)
                    assert closure == {
                        n: h
                        for n, h in full.items()
                        if n == start or reach[n] & conditions[t]
                    }
                    compared += 1
                    trimmed_away += len(full) - len(closure)
        assert compared > 200
        assert trimmed_away > 100

    def test_one_pass_equals_one_trim_per_target_set(self):
        # Each copy of one multi-set trim keeps exactly the children that
        # reach its own target set, as the full closures say; equal target
        # sets get equal copies, and equal kept tuples are one object.
        rng = random.Random(6203)
        compared = trimmed = 0
        for trial in range(20):
            cfg = RandomModelConfig(
                n_primitives=rng.randint(3, 6),
                n_attributes=rng.randint(10, 30),
                n_layers=rng.randint(2, 5),
                n_policies=0,
            )
            g = random_model(rng, cfg).graph
            nodes = list(range(g.node_count()))
            reach = {n: g.attribute_closure(n, g.attr_depth).keys() for n in nodes}
            # Children in the graph's own order: a one-hop closure's keys.
            children = {n: list(g.attribute_closure(n, 1))[1:] for n in nodes}
            sets = [set(rng.sample(nodes, rng.randint(0, 4))) for _ in range(3)]
            copies = g.trimmed_adjacency(sets)
            assert len(copies) == 3
            for targets, copy in zip(sets, copies):
                expected = tuple(
                    tuple(m for m in children[n] if reach[m] & targets) for n in nodes
                )
                assert copy == expected
                assert g.trimmed_adjacency([targets]) == (expected,)
                compared += 1
                trimmed += sum(len(children[n]) - len(copy[n]) for n in nodes)
            # Every node reaches itself, so this copy keeps every edge: it
            # is the graph's own children, which the copies share.
            whole = g.trimmed_adjacency([nodes])[0]
            for n in nodes:
                for a, b in itertools.combinations((*copies, whole), 2):
                    assert (a[n] is b[n]) == (a[n] == b[n])
            again = g.trimmed_adjacency([sets[0], sets[1], set(sets[0])])
            assert again[0] == again[2]
            assert all(again[0][n] is again[2][n] for n in nodes)
            assert again[:2] == copies[:2]
        assert compared == 60
        assert trimmed > 100

    def build(self):
        # s -> a -> sink, and nothing conditions sink until the test adds it.
        g = Graph()
        s = g.add_node("s", ("Primitive",))
        a = g.add_node("a", ("Attribute",))
        sink = g.add_node("sink", ("Attribute",))
        act = g.add_node("act", ("Primitive",))
        obj = g.add_node("obj", ("Primitive",))
        pol = g.add_node("PolicyNode", ("Policy",))
        g.add_edge(s, HAS_ATTR, a)
        g.add_edge(a, HAS_ATTR, sink)
        g.freeze()
        store = PolicyStore(g)
        store.create_policy(
            "OnA", Decision.PERMIT, {SUB: {Ref(a)}, ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        )
        return g, store, s, sink, act, obj, pol

    def test_new_condition_node_after_first_query(self):
        g, store, s, sink, act, obj, pol = self.build()
        q = AccessQuery(s, act, obj)
        assert [m.policy.name for m in matching_policies(store, q)] == ["OnA"]
        assert sink not in store.policies().closures(q, g.attr_depth)[0]
        store.create_policy(
            "OnSink", Decision.DENY, {SUB: {Ref(sink)}, ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        )
        got = matching_policies(store, q)
        assert [m.policy.name for m in got] == ["OnA", "OnSink"]
        assert got[1].len_sub == 3
        assert got == matching_policies_oracle(store, q)

    def test_policy_on_known_nodes_after_first_query(self):
        # The new policy is posted at the next query; each of its nodes is
        # already a condition node of the same slot, so the copies are equal.
        g, store, s, sink, act, obj, pol = self.build()
        q = AccessQuery(s, act, obj)
        assert [m.policy.name for m in matching_policies(store, q)] == ["OnA"]
        adjacency = store.policies().adjacency
        a = g.find_node("a")
        store.create_policy(
            "OnAAgain", Decision.DENY, {SUB: {Ref(a)}, ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        )
        got = matching_policies(store, q)
        assert [m.policy.name for m in got] == ["OnA", "OnAAgain"]
        assert got == matching_policies_oracle(store, q)
        assert store.policies().adjacency == adjacency

    def test_known_node_in_a_new_slot_after_first_query(self):
        # `a` conditions the subject only until OnAToo makes it an object
        # condition too, so the next query builds new copies.
        g, store, s, sink, act, obj, pol = self.build()
        q = AccessQuery(s, act, obj)
        assert [m.policy.name for m in matching_policies(store, q)] == ["OnA"]
        adjacency = store.policies().adjacency
        a = g.find_node("a")
        assert a not in store.policies().closures(AccessQuery(s, act, s), g.attr_depth)[2]
        store.create_policy(
            "OnAToo", Decision.DENY, {SUB: {Ref(a)}, ACT: {Ref(act)}, OBJ: {Ref(obj), Ref(a)}}
        )
        got = matching_policies(store, q)
        assert [m.policy.name for m in got] == ["OnA"]
        assert got == matching_policies_oracle(store, q)
        assert store.policies().adjacency != adjacency
        assert store.policies().closures(AccessQuery(s, act, s), g.attr_depth)[2] == {s: 0, a: 1}
        for q in (AccessQuery(s, act, s), AccessQuery(a, act, a), AccessQuery(s, act, sink)):
            assert matching_policies(store, q) == matching_policies_oracle(store, q)

    def test_policies_created_before_freeze(self):
        # Keys are chosen at the first query, once the graph is frozen.
        g = Graph()
        s1, s2, a, b, act, obj = (
            g.add_node(n) for n in ("s1", "s2", "a", "b", "act", "obj")
        )
        for src, dst in ((s1, a), (s2, a), (s1, b), (a, b)):
            g.add_edge(src, HAS_ATTR, dst)
        store = PolicyStore(g)
        base = {ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        store.create_policy("OnB", Decision.PERMIT, {SUB: {Ref(b)}, **base})
        store.create_policy("OnAB", Decision.DENY, {SUB: {Ref(a), Ref(b)}, **base})
        store.create_policy("OnS2", Decision.PERMIT, {SUB: {Ref(s2), Ref(b)}, **base})
        store.create_policy(
            "Compound", Decision.DENY, {SUB: {Ref(b), Not(Ref(s2))}, **base}
        )
        store.create_policy(
            "NoRefs",
            Decision.PERMIT,
            {SUB: {Or((Ref(s1), Ref(s2)))}, ACT: {Not(Ref(act))}, OBJ: {Ref(obj)}},
        )
        g.freeze()
        expected = {
            s1: ["OnB", "OnAB", "Compound"],
            s2: ["OnB", "OnAB", "OnS2"],
            a: ["OnB", "OnAB", "Compound"],
            b: ["OnB", "Compound"],
        }
        for sub, names in expected.items():
            q = AccessQuery(sub, act, obj)
            got = matching_policies(store, q)
            assert [m.policy.name for m in got] == names
            assert got == matching_policies_oracle(store, q)
        q = AccessQuery(s1, s1, obj)
        assert [m.policy.name for m in matching_policies(store, q)] == ["NoRefs"]
        assert matching_policies(store, q) == matching_policies_oracle(store, q)

    def test_rejected_policy_adds_no_condition_node(self):
        g, store, s, sink, act, obj, pol = self.build()
        q = AccessQuery(s, act, obj)
        before = matching_policies(store, q)
        adjacency = store.policies().adjacency
        on_sink = {SUB: {Ref(sink)}, ACT: {Ref(act)}, OBJ: {Ref(obj)}}
        with pytest.raises(DuplicatePolicyError):
            store.create_policy("OnA", Decision.DENY, on_sink)
        with pytest.raises(DanglingConditionRefError):
            store.create_policy("Dangling", Decision.DENY, {**on_sink, OBJ: {Ref(obj), Ref(999)}})
        with pytest.raises(DanglingConditionRefError):
            store.create_policy("OnPolicy", Decision.DENY, {**on_sink, ACT: {Ref(act), Ref(pol)}})
        assert store.policies().adjacency is adjacency
        assert len(adjacency) == 3
        assert not any(sink in children for copy in adjacency for children in copy)
        assert matching_policies(store, q) == before

    def test_unfrozen_graph_is_rejected(self):
        # The trimmed copy is taken of the frozen graph only, so it can
        # never go stale under the store.
        g = Graph()
        s, a, z = (g.add_node(n) for n in ("s", "a", "z"))
        g.add_edge(s, HAS_ATTR, a)
        store = PolicyStore(g)
        store.create_policy("OnZ", Decision.PERMIT, {t: {Ref(z)} for t in ConditionType})
        q = AccessQuery(s, s, s)
        with pytest.raises(NotFrozenError):
            store.policies().closures(q, 2)
        g.add_edge(a, HAS_ATTR, z)
        g.freeze()
        assert store.policies().closures(q, 2)[0] == {s: 0, a: 1, z: 2}

    def test_concurrent_first_queries_build_one_copy(self, monkeypatch):
        rng = random.Random(88)
        model = random_model(rng, RandomModelConfig(n_attributes=30, n_policies=20))
        store = model.policies
        queries = [random_query(rng, model) for _ in range(16)]
        expected = [matching_policies_oracle(store, q) for q in queries]
        builds = []
        trim = Graph.trimmed_adjacency

        def counting(self, targets):
            builds.append(1)
            return trim(self, targets)

        monkeypatch.setattr(Graph, "trimmed_adjacency", counting)
        workers = 8
        barrier = threading.Barrier(workers, timeout=10)
        results = [None] * workers

        def work(i):
            barrier.wait()
            results[i] = [matching_policies(store, q) for q in queries]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * workers
        assert len(builds) == 1
