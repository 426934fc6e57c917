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
from graphabac.policy import MAX_NESTING, compile_conditions, ref_leaves
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

    def test_output_count_matches_term_product(self):
        from graphabac.policy import _dnf_terms
        from randmodel import random_notfree_expr

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
                    slot_terms *= len(_dnf_terms(e))
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
            for p in store:
                for i in range(3):
                    assert snapshot.refs[i][p.seq] is p.nodes[i]

    def test_slots_hold_plain_nodes_and_no_top_level_ref(self, healthcare):
        for store in _stores(healthcare):
            for p in store:
                assert all(type(n) is int for nodes in p.nodes for n in nodes)
                for pairs in p.compound:
                    for e, leaves in pairs:
                        assert isinstance(e, (Not, And, Or))
                        assert all(type(n) is int for n in leaves)

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
        # An And over a list passes every check and fails only when the
        # slot is hashed.
        unhashable = And([ref_to(g, "Doctor"), ref_to(g, "Nurse")])
        with pytest.raises(TypeError):
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
        """Snapshot and decisions read the leaf tuples compiled at load and
        walk no expression for its leaves."""
        from test_cli import COMPOUND_MODEL

        model = load_model(COMPOUND_MODEL)
        g, store = model.graph, model.policies
        assert any(isinstance(e, Not) for p in store for pairs in p.compound for e, _ in pairs)
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
    for slot in (*pol.nodes, *pol.compound):
        assert len(set(slot)) == len(slot)
    for pairs in pol.compound:
        for e, leaves in pairs:
            assert leaves == tuple(dict.fromkeys(leaf.node for leaf in ref_leaves(e)))
    assert pol.is_valid_shape() == all(given_slots.values())


def test_records_have_no_instance_dict(healthcare):
    g = healthcare.graph
    for record in (Ref(1), g.node(g.find_node("Doctor")), healthcare.policies.get("Policy2")):
        assert not hasattr(record, "__dict__")
