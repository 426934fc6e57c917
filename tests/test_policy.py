import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphabac import (
    And,
    ConditionType,
    Decision,
    Graph,
    Not,
    Or,
    Policy,
    PolicyStore,
    Ref,
    dnf_expand,
)
from graphabac.errors import (
    DanglingConditionRefError,
    DuplicatePolicyError,
    MissingConditionTypeError,
    NegationNotExpandableError,
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

    def test_dangling_ref_rejected(self, healthcare):
        store = PolicyStore(healthcare.graph)
        with pytest.raises(DanglingConditionRefError):
            store.create_policy(
                "P",
                Decision.PERMIT,
                {SUB: {Ref(9999)}, ACT: {Ref(9999)}, OBJ: {Ref(9999)}},
            )

    def test_seq_strictly_increasing(self, healthcare):
        seqs = [p.seq for p in healthcare.policies.policies()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


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
            {
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
            },
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
            {
                SUB: frozenset({Or((Ref(a), Ref(b)))}),
                OBJ: frozenset({Or((Ref(c), Ref(d)))}),
                ACT: frozenset({Ref(g.find_node("Monthly Reports"))}),
            },
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
            {
                SUB: frozenset({Not(Ref(g.find_node("Manager")))}),
                ACT: frozenset({Ref(g.find_node("View"))}),
                OBJ: frozenset({Ref(g.find_node("Monthly Reports"))}),
            },
        )
        with pytest.raises(NegationNotExpandableError):
            dnf_expand(pol)

    def test_output_count_matches_term_product(self):
        from graphabac.policy import _dnf_terms
        from graphabac.randmodel import random_notfree_expr

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
            pol = Policy("P", Decision.PERMIT, 0, 0, conditions)
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
