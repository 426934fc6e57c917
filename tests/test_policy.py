import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphabac import (
    AccessQuery,
    And,
    CombiningAlgorithm,
    ConditionType,
    Decision,
    Graph,
    Not,
    Or,
    Policy,
    PolicyStore,
    Ref,
    dnf_expand,
    evaluate,
    load_model,
    matching_policies_oracle,
)
from graphabac import matcher, policy
from graphabac.policy import AND, MAX_NESTING, REF, compile_conditions, leaf_nodes, ref_leaves
from graphabac.errors import (
    ConditionTooDeepError,
    DanglingConditionRefError,
    DuplicatePolicyError,
    MissingConditionTypeError,
    NegationNotExpandableError,
    PolicyError,
    UnknownPolicyError,
)

SUB = ConditionType.SUB_CON
ACT = ConditionType.ACT_CON
OBJ = ConditionType.OBJ_CON


def ref_to(graph, name):
    return Ref(graph.find_node(name))


class TestCreatePolicy:
    def test_healthcare_policy2(self, healthcare):
        store = healthcare.policies
        pol = store.get("Policy2")
        assert pol.decision is Decision.PERMIT
        assert pol.conditions[SUB] == {
            ref_to(healthcare.graph, "Doctor"),
            ref_to(healthcare.graph, "Hospital Staff"),
        }

    def test_empty_slot_rejected(self, healthcare):
        store = PolicyStore(healthcare.graph)
        with pytest.raises(MissingConditionTypeError) as exc:
            store.create_policy(
                "P",
                Decision.PERMIT,
                {
                    SUB: {ref_to(healthcare.graph, "Doctor")},
                    ACT: set(),
                    OBJ: {ref_to(healthcare.graph, "Hospital Records")},
                },
            )
        assert exc.value.missing == {ACT}

    def test_primitive_condition_allowed(self, healthcare):
        # Policy3 conditions the action on the Read primitive itself.
        assert healthcare.policies.get("Policy3").conditions[ACT] == {
            ref_to(healthcare.graph, "Read")
        }

    def test_duplicate_name_rejected(self, healthcare):
        store = PolicyStore(healthcare.graph)
        conds = {
            SUB: {ref_to(healthcare.graph, "Doctor")},
            ACT: {ref_to(healthcare.graph, "Read")},
            OBJ: {ref_to(healthcare.graph, "Hospital Records")},
        }
        store.create_policy("P", Decision.PERMIT, conds)
        with pytest.raises(DuplicatePolicyError):
            store.create_policy("P", Decision.DENY, conds)

    def test_bad_decision_or_score_rejected(self, healthcare):
        # A string decision would otherwise permit under deny-overrides, and
        # a string score would make max-score raise.
        store = PolicyStore(healthcare.graph)
        conds = {
            SUB: {ref_to(healthcare.graph, "Doctor")},
            ACT: {ref_to(healthcare.graph, "Read")},
            OBJ: {ref_to(healthcare.graph, "Hospital Records")},
        }
        store.create_policy("First", Decision.DENY, conds)
        for decision in ("Deny", "Permit", None, 0, True):
            with pytest.raises(PolicyError, match="not a Decision"):
                store.create_policy("P", decision, conds)
            assert len(store) == 1
        for score in ("9", 1.0, True, False, [1]):
            with pytest.raises(PolicyError, match="not an int"):
                store.create_policy("P", Decision.PERMIT, conds, score=score)
            assert len(store) == 1
        assert store.create_policy("P", Decision.PERMIT, conds, score=-3).seq == 1
        assert store.create_policy("Q", Decision.PERMIT, conds, score=None).score == 0
        assert [p.name for p in store.policies()] == ["First", "P", "Q"]

    def test_name_not_a_str_rejected(self, healthcare):
        # A non-str name would reach serve's reply encoder and end serve.
        store = PolicyStore(healthcare.graph)
        records = ref_to(healthcare.graph, "Hospital Records")
        conds = {SUB: {records}, ACT: {records}, OBJ: {records}}
        for name in (123, None, b"P", ["P"]):
            with pytest.raises(PolicyError, match="not a str"):
                store.create_policy(name, Decision.PERMIT, conds)
            assert len(store) == 0 and store.policies() == ()

    @pytest.mark.parametrize(
        "slot",
        [
            pytest.param(lambda g: ["Doctor"], id="str-in-list"),
            pytest.param(lambda g: [0], id="int-in-list"),
            pytest.param(lambda g: "Doctor", id="str-slot"),
            pytest.param(lambda g: [Not(5)], id="not-of-int"),
            pytest.param(
                lambda g: [And([ref_to(g, "Doctor"), ref_to(g, "Nurse")])], id="and-of-list"
            ),
            pytest.param(
                lambda g: [Or((ref_to(g, "Doctor"), Not(Or([ref_to(g, "Nurse")] * 2))))],
                id="nested-or-of-list",
            ),
        ],
    )
    def test_malformed_condition_part_rejected(self, healthcare, slot):
        g = healthcare.graph
        store = PolicyStore(g)
        records = ref_to(g, "Hospital Records")
        conds = {SUB: {records}, ACT: {records}, OBJ: {records}}
        first = store.create_policy("P", Decision.PERMIT, conds)
        before = store.policies()
        with pytest.raises(PolicyError, match="policy 'Q' has a condition part"):
            store.create_policy("Q", Decision.PERMIT, {**conds, SUB: slot(g)})
        assert store.policies() is before and tuple(before) == (first,)

    @pytest.mark.parametrize(
        "conditions",
        [
            pytest.param(lambda r: {SUB: 5, ACT: [r], OBJ: [r]}, id="int-slot"),
            pytest.param(lambda r: {SUB: None, ACT: [r], OBJ: [r]}, id="none-slot"),
            pytest.param(lambda r: [(SUB, [r]), (ACT, [r]), (OBJ, [r])], id="list-of-pairs"),
        ],
    )
    def test_conditions_not_a_mapping_of_collections_rejected(self, healthcare, conditions):
        store = PolicyStore(healthcare.graph)
        records = ref_to(healthcare.graph, "Hospital Records")
        with pytest.raises(PolicyError, match="not a mapping of collections"):
            store.create_policy("Q", Decision.PERMIT, conditions(records))
        assert len(store) == 0 and store.policies() == ()

    def test_dangling_ref_rejected(self, healthcare):
        # A node that is not a plain int names no node, though True == 1
        # and 1.0 == 1.
        store = PolicyStore(healthcare.graph)
        for node in (9999, "Doctor", None, 1.0, True):
            with pytest.raises(DanglingConditionRefError):
                store.create_policy(
                    "P",
                    Decision.PERMIT,
                    {SUB: {Ref(node)}, ACT: {Ref(node)}, OBJ: {Ref(node)}},
                )
            assert len(store) == 0
            assert store.policies() == ()
        # An unhashable node is rejected before anything hashes it; lists,
        # because a set literal would raise before create_policy runs.
        for expr in (Ref([1]), Ref({}), Not(Ref([1]))):
            with pytest.raises(DanglingConditionRefError):
                store.create_policy(
                    "P", Decision.PERMIT, {SUB: [expr], ACT: [expr], OBJ: [expr]}
                )
            assert len(store) == 0

    def test_seq_strictly_increasing(self, healthcare):
        seqs = [p.seq for p in healthcare.policies.policies()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_policies_cached_and_indexed_by_seq(self, healthcare):
        store = PolicyStore(healthcare.graph)
        conds = {
            SUB: {ref_to(healthcare.graph, "Doctor")},
            ACT: {ref_to(healthcare.graph, "Read")},
            OBJ: {ref_to(healthcare.graph, "Hospital Records")},
        }
        a = store.create_policy("A", Decision.PERMIT, conds)
        first = store.policies()
        assert store.policies() is first
        b = store.create_policy("B", Decision.DENY, conds)
        with pytest.raises(DuplicatePolicyError):
            store.create_policy("B", Decision.DENY, conds)
        assert store.policies() == (a, b)
        assert all(store.policies()[p.seq] is p for p in (a, b))


def _nested(leaf, levels, wrap):
    expr = leaf
    for _ in range(levels):
        expr = Not(expr) if wrap == "not" else And((expr, leaf))
    return expr


class TestNestingBound:
    # Lists, not sets: a set would hash the deep tree, which recurses.
    def conditions(self, graph, subject):
        return {
            SUB: [subject],
            ACT: [ref_to(graph, "Read")],
            OBJ: [ref_to(graph, "Hospital Records")],
        }

    @pytest.mark.parametrize("wrap", ["not", "and"])
    def test_too_deep_rejected_without_trace(self, healthcare, wrap):
        g = healthcare.graph
        store = PolicyStore(g)
        deep = _nested(ref_to(g, "Doctor"), 5000, wrap)
        with pytest.raises(ConditionTooDeepError, match=f"deeper than {MAX_NESTING} levels"):
            store.create_policy("Deep", Decision.PERMIT, self.conditions(g, deep))
        assert len(store) == 0
        assert store.policies() == ()
        kept = store.create_policy("Next", Decision.PERMIT, self.conditions(g, ref_to(g, "Doctor")))
        assert kept.seq == 0

    @pytest.mark.parametrize("wrap", ["not", "and"])
    def test_exactly_max_nesting_accepted(self, healthcare, wrap):
        g = healthcare.graph
        store = PolicyStore(g)
        doctor = ref_to(g, "Doctor")
        at_limit = _nested(doctor, MAX_NESTING, wrap)
        store.create_policy("AtLimit", Decision.PERMIT, self.conditions(g, at_limit))
        with pytest.raises(ConditionTooDeepError):
            store.create_policy(
                "OneMore", Decision.PERMIT, self.conditions(g, _nested(doctor, MAX_NESTING + 1, wrap))
            )
        assert [p.name for p in store.policies()] == ["AtLimit"]

    def test_part_types_are_checked_within_the_bound(self, healthcare):
        # A part of the wrong type within MAX_NESTING levels is reported
        # before the depth; one further down makes the condition too deep.
        # So is one within the bound only through a shared part that is met
        # first at the bound.  Of several, the first in depth-first,
        # left-to-right order is named.
        g = healthcare.graph
        store = PolicyStore(g)
        too_deep = _nested(ref_to(g, "Doctor"), MAX_NESTING + 5, "not")
        shared = Not(5)
        for expr, error in (
            (_nested(5, MAX_NESTING, "not"), "condition part of type int"),
            (And((too_deep, Not(5))), "condition part of type int"),
            (And((_nested(shared, MAX_NESTING - 1, "not"), shared)), "condition part of type int"),
            (And((Not(5), "x")), "condition part of type int"),
            (_nested(5, MAX_NESTING + 1, "not"), "deeper than"),
        ):
            with pytest.raises(PolicyError, match=error):
                store.create_policy("P", Decision.PERMIT, self.conditions(g, expr))
        assert len(store) == 0


class TestSharedSubexpressions:
    """A part shared by several parents is compiled once, so a condition
    whose paths double at each level costs time linear in its objects."""

    def test_doubling_chain_at_the_nesting_bound(self, healthcare, query):
        import time

        g = healthcare.graph
        chain = ref_to(g, "John")
        for _ in range(MAX_NESTING):
            chain = And((chain, chain))
        conditions = {SUB: [chain], ACT: [ref_to(g, "Write")], OBJ: [ref_to(g, "MR_1234")]}
        store = PolicyStore(g)
        start = time.perf_counter()
        pol = store.create_policy("Chain", Decision.PERMIT, conditions)
        created = time.perf_counter() - start
        start = time.perf_counter()
        result = evaluate(store, query("John", "Write", "MR_1234"))
        evaluated = time.perf_counter() - start
        assert created < 0.5 and evaluated < 0.5
        assert result.decision is Decision.PERMIT
        assert [m.policy for m in result.matches] == [pol]
        ((exprs, program), (), ()) = pol.compound
        assert exprs == (chain,)
        # One op per level and the leaf, then the slot's conjunction.
        assert len(program) == MAX_NESTING + 1 + 1
        assert program[0] == (REF, g.find_node("John"))
        assert program[-1] == (AND, (MAX_NESTING,))

    def test_conditions_hash_a_shared_part_once(self, healthcare):
        import time

        g = healthcare.graph
        chain = ref_to(g, "John")
        for _ in range(24):
            chain = And((chain, chain))
        conditions = {SUB: [chain], ACT: [ref_to(g, "Write")], OBJ: [ref_to(g, "MR_1234")]}
        pol = PolicyStore(g).create_policy("Chain", Decision.PERMIT, conditions)
        start = time.perf_counter()
        got = pol.conditions
        assert time.perf_counter() - start < 0.1
        assert got == {t: frozenset(exprs) for t, exprs in conditions.items()}

    @pytest.mark.parametrize("shallow_first", [True, False])
    def test_deepest_path_to_a_shared_part_counts(self, healthcare, shallow_first):
        g = healthcare.graph
        shared = _nested(ref_to(g, "Doctor"), 50, "not")
        for levels, fits in ((MAX_NESTING - 50, False), (MAX_NESTING - 51, True)):
            # ``shared`` is a child of the And and also ``levels`` Nots
            # further down, so its leaf sits 1 + levels + 50 levels deep.
            deep = _nested(shared, levels, "not")
            expr = And((shared, deep) if shallow_first else (deep, shared))
            conditions = {SUB: [expr], ACT: [ref_to(g, "Read")], OBJ: [ref_to(g, "Doctor")]}
            store = PolicyStore(g)
            if fits:
                store.create_policy("P", Decision.PERMIT, conditions)
            else:
                with pytest.raises(ConditionTooDeepError):
                    store.create_policy("P", Decision.PERMIT, conditions)
                assert len(store) == 0


class TestValidatePolicy:
    def test_missing_types_reported(self, healthcare):
        store = PolicyStore(healthcare.graph)
        with pytest.raises(MissingConditionTypeError) as exc:
            store.create_policy(
                "p", Decision.PERMIT, {SUB: {ref_to(healthcare.graph, "Doctor")}}
            )
        assert exc.value.missing == {ACT, OBJ}

    def test_dangling_ref_reported(self, healthcare):
        store = PolicyStore(healthcare.graph)
        with pytest.raises(DanglingConditionRefError, match="node#12345"):
            store.create_policy(
                "p",
                Decision.PERMIT,
                {
                    SUB: {Ref(12345)},
                    ACT: {ref_to(healthcare.graph, "Read")},
                    OBJ: {ref_to(healthcare.graph, "Hospital Records")},
                },
            )

    def test_unknown_policy(self, healthcare):
        with pytest.raises(UnknownPolicyError):
            healthcare.policies.get("Ghost")


def reporting_graph():
    g = Graph()
    for name in ("Manager", "Senior", "Employee", "View", "Monthly Reports"):
        g.add_node(name, ("Attribute",))
    g.freeze()
    return g


class TestDnfExpand:
    def test_manager_or_senior_employee(self):
        g = reporting_graph()
        pol = Policy(
            "Reports", Decision.PERMIT, 0, 0,
            *compile_conditions({
                SUB: frozenset(
                    {
                        Or(
                            (
                                Ref(g.find_node("Manager")),
                                And(
                                    (
                                        Ref(g.find_node("Senior")),
                                        Ref(g.find_node("Employee")),
                                    )
                                ),
                            )
                        )
                    }
                ),
                ACT: frozenset({Ref(g.find_node("View"))}),
                OBJ: frozenset({Ref(g.find_node("Monthly Reports"))}),
            }),
        )
        expanded = dnf_expand(pol)
        assert len(expanded) == 2
        subs = sorted(
            frozenset(g.node(r.node).name for r in p.conditions[SUB])
            for p in expanded
        )
        assert subs == [frozenset({"Manager"}), frozenset({"Employee", "Senior"})]
        for p in expanded:
            assert p.decision is Decision.PERMIT
            assert all(isinstance(e, Ref) for exprs in p.conditions.values() for e in exprs)
            assert p.name.startswith("Reports#")

    def test_simple_policy_is_identity(self, healthcare):
        pol = healthcare.policies.get("Policy2")
        expanded = dnf_expand(pol)
        assert len(expanded) == 1
        assert expanded[0].conditions == dict(pol.conditions)
        assert expanded[0].name == "Policy2#0"

    def test_cross_product_count(self):
        g = reporting_graph()
        a, b, c, d = (g.find_node(n) for n in ("Manager", "Senior", "Employee", "View"))
        pol = Policy(
            "P", Decision.PERMIT, 0, 0,
            *compile_conditions({
                SUB: frozenset({Or((Ref(a), Ref(b)))}),
                OBJ: frozenset({Or((Ref(c), Ref(d)))}),
                ACT: frozenset({Ref(g.find_node("Monthly Reports"))}),
            }),
        )
        expanded = dnf_expand(pol)
        assert len(expanded) == 4
        combos = {
            (
                frozenset(r.node for r in p.conditions[SUB]),
                frozenset(r.node for r in p.conditions[OBJ]),
            )
            for p in expanded
        }
        assert combos == {
            (frozenset({x}), frozenset({y})) for x in (a, b) for y in (c, d)
        }

    def test_not_rejected(self):
        g = reporting_graph()
        pol = Policy(
            "P", Decision.PERMIT, 0, 0,
            *compile_conditions({
                SUB: frozenset({Not(Ref(g.find_node("Manager")))}),
                ACT: frozenset({Ref(g.find_node("View"))}),
                OBJ: frozenset({Ref(g.find_node("Monthly Reports"))}),
            }),
        )
        with pytest.raises(NegationNotExpandableError):
            dnf_expand(pol)

    def test_doubling_chain_at_the_nesting_bound_is_one_policy(self, healthcare):
        # The chain has 2**MAX_NESTING paths to John; expanding the program
        # builds each level's terms once, from its one child's.
        import time

        g = healthcare.graph
        chain = ref_to(g, "John")
        for _ in range(MAX_NESTING):
            chain = And((chain, chain))
        conditions = {SUB: [chain], ACT: [ref_to(g, "Write")], OBJ: [ref_to(g, "MR_1234")]}
        pol = PolicyStore(g).create_policy("Chain", Decision.PERMIT, conditions)
        start = time.perf_counter()
        expanded = dnf_expand(pol)
        assert time.perf_counter() - start < 0.5
        assert [p.name for p in expanded] == ["Chain#0"]
        assert expanded[0].nodes[0] == (g.find_node("John"),)
        assert expanded[0].compound == ((), (), ())

    def test_terms_hold_plain_nodes_then_expressions_in_given_order(self):
        g = reporting_graph()
        names = ("Manager", "Senior", "Employee", "View", "Monthly Reports")
        m, s, e, v, r = (g.find_node(n) for n in names)
        conditions = {
            SUB: [Or((Ref(s), Ref(e))), Ref(v), And((Ref(m), Ref(s)))],
            ACT: [Ref(v)],
            OBJ: [Ref(r)],
        }
        pol = Policy("P", Decision.PERMIT, 0, 0, *compile_conditions(conditions))
        expanded = dnf_expand(pol)
        assert [p.name for p in expanded] == ["P#0", "P#1"]
        assert [p.nodes for p in expanded] == [
            ((v, s, m), (v,), (r,)),
            ((v, e, m, s), (v,), (r,)),
        ]

    def test_output_count_matches_term_product(self):
        from randmodel import dnf_term_count, random_notfree_expr

        g = Graph()
        nodes = [g.add_node(f"n{i}", ("Attribute",)) for i in range(6)]
        g.freeze()
        rng = random.Random(7)
        for _ in range(50):
            conditions = {}
            expected = 1
            for t in ConditionType:
                exprs = {
                    random_notfree_expr(rng, nodes)
                    for _ in range(rng.randint(1, 2))
                }
                slot_terms = 1
                for e in exprs:
                    slot_terms *= dnf_term_count(e)
                expected *= slot_terms
                conditions[t] = frozenset(exprs)
            pol = Policy("P", Decision.PERMIT, 0, 0, *compile_conditions(conditions))
            assert len(dnf_expand(pol)) == expected


class TestExprInvariants:
    def test_and_or_need_two_children(self):
        with pytest.raises(ValueError):
            And((Ref(0),))
        with pytest.raises(ValueError):
            Or((Ref(0),))

    @given(st.integers(min_value=0, max_value=5))
    def test_exprs_hashable_and_structural(self, n):
        assert Ref(n) == Ref(n)
        assert {Ref(n), Ref(n)} == {Ref(n)}
        assert Not(Ref(n)) == Not(Ref(n))


def _stores(healthcare):
    """The bundled store, a randmodel store and one with compound slots."""
    from randmodel import RandomModelConfig, random_model
    from test_matcher import _random_slot

    g = healthcare.graph
    nodes = [n for n in range(g.node_count()) if not g.node(n).has_label("Policy")]
    compound = PolicyStore(g)
    rng = random.Random(5)
    for i in range(40):
        compound.create_policy(
            f"c{i}", Decision.PERMIT, {t: _random_slot(rng, nodes) for t in ConditionType}
        )
    model = random_model(random.Random(11), RandomModelConfig(n_policies=200))
    return healthcare.policies, model.policies, compound


class TestCompiledSlots:
    def test_snapshot_refs_are_the_policies_own_tuples(self, healthcare):
        for store in _stores(healthcare):
            snapshot = store.policies()
            posted = {p.seq: p for keys in snapshot.keys for ps in keys.values() for p in ps}
            posted.update((p.seq, p) for p in snapshot.residual)
            for p in store:
                for i in range(3):
                    assert posted[p.seq].nodes[i] is p.nodes[i]

    def test_index_posts_each_policy_once_as_the_stored_object(self, healthcare):
        for store in _stores(healthcare):
            snapshot = store.policies()
            posted = [p for keys in snapshot.keys for ps in keys.values() for p in ps]
            posted += snapshot.residual
            assert sorted(p.seq for p in posted) == list(range(len(store)))
            assert all(p is store.get(p.name) for p in posted)

    def test_candidates_come_in_strictly_increasing_seq(self, healthcare):
        rng = random.Random(17)
        longest = 0
        for store in _stores(healthcare):
            g = store.graph
            nodes = [n for n in range(g.node_count()) if not g.node(n).has_label("Policy")]
            for _ in range(100):
                q = AccessQuery(*rng.choices(nodes, k=3))
                closures = store.policies().closures(q, g.attr_depth)
                seqs = [p.seq for p in store.policies().candidates(closures)]
                assert all(a < b for a, b in zip(seqs, seqs[1:]))
                longest = max(longest, len(seqs))
        assert longest > 10

    def test_slots_hold_plain_nodes_and_no_top_level_ref(self, healthcare):
        for store in _stores(healthcare):
            for p in store:
                assert all(type(n) is int for nodes in p.nodes for n in nodes)
                for compiled in p.compound:
                    exprs, program = compiled or ((), ())
                    assert all(isinstance(e, (Not, And, Or)) for e in exprs)
                    assert all(type(n) is int for op, n in program if op == REF)

    def test_same_node_in_every_slot(self, healthcare):
        g = healthcare.graph
        doctor = g.find_node("Doctor")
        pol = PolicyStore(g).create_policy(
            "P", Decision.PERMIT,
            {SUB: [ref_to(g, "Doctor"), Ref(doctor)], ACT: {Ref(doctor)}, OBJ: {Ref(doctor)}},
        )
        assert pol.nodes == ((doctor,), (doctor,), (doctor,))
        # Every policy without a compound expression shares one constant.
        assert pol.compound == ((), (), ())
        assert pol.compound is healthcare.policies.get("Policy2").compound

    def test_leaves_under_operators_keep_their_objects(self, healthcare):
        g = healthcare.graph
        store = PolicyStore(g)
        first = ref_to(g, "Doctor")
        store.create_policy("P", Decision.PERMIT, {SUB: {first}, ACT: {first}, OBJ: {first}})
        inner = ref_to(g, "Doctor")
        pol = store.create_policy(
            "Q", Decision.DENY, {SUB: {Not(inner)}, ACT: {first}, OBJ: {first}}
        )
        (neg,) = pol.conditions[SUB]
        assert neg.inner is inner and inner is not first

    def test_rejected_policy_leaves_no_trace(self, healthcare):
        g = healthcare.graph
        store = PolicyStore(g)
        records = ref_to(g, "Hospital Records")
        store.create_policy("P", Decision.PERMIT, {SUB: {records}, ACT: {records}, OBJ: {records}})
        doctor = ref_to(g, "Doctor")
        with pytest.raises(MissingConditionTypeError):
            store.create_policy("Q", Decision.PERMIT, {SUB: {doctor}, OBJ: {records}})
        with pytest.raises(DanglingConditionRefError):
            store.create_policy(
                "Q", Decision.PERMIT, {SUB: {doctor}, ACT: {Ref(-1)}, OBJ: {records}}
            )
        # An And over a list is rejected before anything hashes it.
        unhashable = And([ref_to(g, "Doctor"), ref_to(g, "Nurse")])
        with pytest.raises(PolicyError):
            store.create_policy(
                "Q", Decision.PERMIT, {SUB: [doctor, unhashable], ACT: {records}, OBJ: {records}}
            )
        assert len(store) == 1
        pol = store.create_policy(
            "Q", Decision.PERMIT, {SUB: {doctor}, ACT: {records}, OBJ: {records}}
        )
        assert pol.seq == 1 and store.policies() == (store.get("P"), pol)

    @pytest.mark.parametrize("slot", range(3))
    def test_slot_given_as_generator_is_read_once(self, healthcare, slot):
        g = healthcare.graph
        nodes = [g.find_node(n) for n in ("Doctor", "Read", "Hospital Records")]
        conditions = {t: [Ref(n)] for t, n in zip(ConditionType, nodes)}
        t = list(ConditionType)[slot]
        store = PolicyStore(g)
        conditions[t] = (Ref(n) for n in [nodes[slot]])
        pol = store.create_policy("P", Decision.PERMIT, conditions)
        assert pol.nodes == tuple((n,) for n in nodes)
        primitives = [n for n in range(g.node_count()) if g.node(n).has_label("Primitive")]
        actions = [g.find_node("Read"), g.find_node("Write")]
        for sub in primitives:
            for act in actions:
                for obj in primitives:
                    q = AccessQuery(sub, act, obj)
                    assert evaluate(store, q).matches == tuple(matching_policies_oracle(store, q))
        conditions[t] = (r for r in ())
        with pytest.raises(MissingConditionTypeError):
            store.create_policy("Q", Decision.PERMIT, conditions)
        assert len(store) == 1

    def test_matching_reads_the_compiled_leaves(self, monkeypatch):
        """Snapshot and decisions read the programs compiled at load and
        walk no expression for its leaves."""
        from test_cli import COMPOUND_MODEL

        model = load_model(COMPOUND_MODEL)
        g, store = model.graph, model.policies
        assert any(isinstance(e, Not) for p in store for c in p.compound if c for e in c[0])
        queries = [AccessQuery(*q) for q in itertools.product(range(g.node_count()), repeat=3)]
        expected = [matching_policies_oracle(store, q) for q in queries]

        def no_walk(expr):
            raise AssertionError("leaves walked after load")

        monkeypatch.setattr(policy, "ref_leaves", no_walk)
        monkeypatch.setattr(matcher, "ref_leaves", no_walk)
        store.policies()
        for alg in CombiningAlgorithm:
            for q, matches in zip(queries, expected):
                assert evaluate(store, q, alg).matches == tuple(matches)


_NODES = list(range(6))


@given(st.randoms(use_true_random=False))
def test_compiled_slots_round_trip(rng):
    """Compiling a conditions mapping loses nothing and keeps no repeat:
    ``conditions`` rebuilds the given sets, and the shape check agrees."""
    from test_matcher import _random_slot

    given_slots = {}
    for t in ConditionType:
        exprs = [] if rng.random() < 0.1 else list(_random_slot(rng, _NODES))
        # Repeats: the same objects again, and equal Refs that are new objects.
        exprs += rng.sample(exprs, rng.randint(0, len(exprs)))
        exprs += [Ref(e.node) for e in exprs if isinstance(e, Ref)]
        rng.shuffle(exprs)
        given_slots[t] = exprs
    pol = Policy("P", Decision.PERMIT, 0, 0, *compile_conditions(given_slots))
    assert pol.conditions == {t: frozenset(exprs) for t, exprs in given_slots.items()}
    for slot in pol.nodes:
        assert len(set(slot)) == len(slot)
    for compiled in pol.compound:
        if compiled:
            exprs, program = compiled
            assert len(set(exprs)) == len(exprs) and len(set(program)) == len(program)
            leaves = leaf_nodes(compiled)
            assert len(set(leaves)) == len(leaves)
            assert set(leaves) == {leaf.node for e in exprs for leaf in ref_leaves(e)}
    assert pol.is_valid_shape() == all(given_slots.values())


def test_records_have_no_instance_dict(healthcare):
    g = healthcare.graph
    for record in (Ref(1), g.node(g.find_node("Doctor")), healthcare.policies.get("Policy2")):
        assert not hasattr(record, "__dict__")
