import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphabac import (
    AccessQuery,
    CombiningAlgorithm,
    ConditionType,
    Decision,
    Policy,
    PolicyMatch,
    combine,
    evaluate,
    load_model,
)
from graphabac.combine import EvaluationResult
from graphabac.policy import compile_conditions

ALGS = list(CombiningAlgorithm)


def match(name, decision, score=0, seq=None, lens=(1, 1, 1)):
    pol = Policy(
        name,
        decision,
        score,
        seq if seq is not None else 0,
        *compile_conditions({t: frozenset() for t in ConditionType}),
    )
    return PolicyMatch(pol, *lens)


P = Decision.PERMIT
D = Decision.DENY


class TestCombine:
    def test_empty_is_deny_for_all(self):
        for alg in ALGS:
            result = combine([], alg)
            assert result.decision is D
            assert result.matches == ()
            assert result.deciding_policies == ()

    @pytest.mark.parametrize(
        "alg,matches,expected",
        [
            # deny-overrides
            (CombiningAlgorithm.DENY_OVERRIDES, [("a", P)], P),
            (CombiningAlgorithm.DENY_OVERRIDES, [("a", P), ("b", D)], D),
            (CombiningAlgorithm.DENY_OVERRIDES, [("a", D)], D),
            # permit-overrides
            (CombiningAlgorithm.PERMIT_OVERRIDES, [("a", D)], D),
            (CombiningAlgorithm.PERMIT_OVERRIDES, [("a", D), ("b", P)], P),
            (CombiningAlgorithm.PERMIT_OVERRIDES, [("a", P)], P),
            # first-applicable
            (CombiningAlgorithm.FIRST_APPLICABLE, [("a", D), ("b", P)], D),
            (CombiningAlgorithm.FIRST_APPLICABLE, [("a", P), ("b", D)], P),
        ],
    )
    def test_basic_cases(self, alg, matches, expected):
        ms = [match(n, d, seq=i) for i, (n, d) in enumerate(matches)]
        assert combine(ms, alg).decision is expected

    def test_max_score_restricts_before_deny_overrides(self):
        ms = [match("P1", P, score=5, seq=0), match("P2", D, score=3, seq=1)]
        result = combine(ms, CombiningAlgorithm.MAX_SCORE_DENY_OVERRIDES)
        assert result.decision is P
        assert [m.policy.name for m in result.deciding_policies] == ["P1"]

    def test_max_score_tie_applies_deny_overrides(self):
        ms = [match("P1", P, score=5, seq=0), match("P2", D, score=5, seq=1)]
        result = combine(ms, CombiningAlgorithm.MAX_SCORE_DENY_OVERRIDES)
        assert result.decision is D

    def test_shortest_path_restricts_to_min_length(self):
        ms = [
            match("A", P, seq=0, lens=(2, 1, 1)),
            match("B", D, seq=1, lens=(2, 1, 1)),
            match("C", P, seq=2, lens=(2, 2, 2)),
        ]
        result = combine(ms, CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES)
        assert result.decision is D
        assert {m.policy.name for m in result.deciding_policies} == {"B"}

    def test_shortest_path_ignores_longer_deny(self):
        ms = [
            match("A", P, seq=0, lens=(1, 1, 1)),
            match("B", D, seq=1, lens=(2, 2, 2)),
        ]
        result = combine(ms, CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES)
        assert result.decision is P


decisions = st.sampled_from([P, D])
match_lists = st.lists(
    st.tuples(decisions, st.integers(0, 5), st.integers(1, 4)), max_size=8
).map(
    lambda rows: [
        match(f"p{i}", d, score=s, seq=i, lens=(l, 1, 1))
        for i, (d, s, l) in enumerate(rows)
    ]
)


class TestCombineProperties:
    @given(match_lists)
    def test_deny_overrides_never_permits_past_a_deny(self, ms):
        result = combine(ms, CombiningAlgorithm.DENY_OVERRIDES)
        if any(m.policy.decision is D for m in ms):
            assert result.decision is D

    @given(match_lists)
    def test_permit_overrides_never_denies_past_a_permit(self, ms):
        result = combine(ms, CombiningAlgorithm.PERMIT_OVERRIDES)
        if any(m.policy.decision is P for m in ms):
            assert result.decision is P

    @given(match_lists)
    def test_all_permit_agreement(self, ms):
        if not ms or any(m.policy.decision is D for m in ms):
            return
        for alg in ALGS:
            assert combine(ms, alg).decision is P

    @given(match_lists, decisions)
    def test_max_score_ignores_lower_scores(self, ms, d):
        if not ms:
            return
        top = max(m.policy.score for m in ms)
        extra = match("low", d, score=top - 1, seq=99)
        a = combine(ms, CombiningAlgorithm.MAX_SCORE_DENY_OVERRIDES)
        b = combine(ms + [extra], CombiningAlgorithm.MAX_SCORE_DENY_OVERRIDES)
        assert a.decision is b.decision

    @given(match_lists, decisions)
    def test_shortest_path_ignores_longer_paths(self, ms, d):
        if not ms:
            return
        shortest = min(m.total_len for m in ms)
        extra = match("far", d, seq=99, lens=(shortest, 1, 1))  # total > shortest
        a = combine(ms, CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES)
        b = combine(ms + [extra], CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES)
        assert a.decision is b.decision

    @given(match_lists)
    def test_pure_function(self, ms):
        for alg in ALGS:
            assert combine(ms, alg) == combine(ms, alg)

    @given(match_lists)
    def test_deciding_subset_of_matches(self, ms):
        for alg in ALGS:
            result = combine(ms, alg)
            names = [m.policy.name for m in result.matches]
            for m in result.deciding_policies:
                assert m.policy.name in names


class TestEvaluate:
    def test_golden_queries(self, healthcare, query):
        cases = [
            (("John", "Write", "MR_1234"), P),
            (("Sue", "Read", "MR_1234"), P),
            (("Sue", "Write", "MR_1234"), D),
        ]
        for names, expected in cases:
            result = evaluate(
                healthcare.policies, query(*names), CombiningAlgorithm.DENY_OVERRIDES
            )
            assert result.decision is expected

    def test_permit_overrides_on_sue_read(self, healthcare, query):
        result = evaluate(
            healthcare.policies,
            query("Sue", "Read", "MR_1234"),
            CombiningAlgorithm.PERMIT_OVERRIDES,
        )
        assert result.decision is P
        assert [m.policy.name for m in result.matches] == ["Policy3"]

    def test_first_applicable_keeps_only_the_first_match(self, two_match_text):
        model = load_model(two_match_text)
        g = model.graph
        q = AccessQuery(g.find_node("u"), g.find_node("a"), g.find_node("o"))
        result = evaluate(model.policies, q, CombiningAlgorithm.FIRST_APPLICABLE)
        assert [m.policy.name for m in result.matches] == ["Near", "Far"]
        assert result.decision is P
        assert result.deciding_policies == result.matches[:1]

    def test_no_match_is_default_deny_everywhere(self, healthcare, query):
        q = query("Sue", "Write", "MR_1234")
        for alg in ALGS:
            result = evaluate(healthcare.policies, q, alg)
            assert result.decision is D
            assert result.matches == ()


class TestRecords:
    """The query, match and result records are immutable values: assignment
    fails, and they hash and compare by their fields."""

    RECORDS = [
        (AccessQuery(0, 1, 2), {"sub": 0, "act": 1, "obj": 2}),
        (PolicyMatch("p", 1, 2, 3), {"policy": "p", "len_sub": 1, "len_act": 2, "len_obj": 3}),
        (
            EvaluationResult(D, ALGS[0], (), ()),
            {"decision": D, "algorithm": ALGS[0], "matches": (), "deciding_policies": ()},
        ),
    ]

    @pytest.mark.parametrize("record, fields", RECORDS)
    def test_fields_read_back_and_reject_assignment(self, record, fields):
        for name, value in fields.items():
            assert getattr(record, name) == value
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert {name: getattr(record, name) for name in fields} == fields

    @pytest.mark.parametrize("record, fields", RECORDS)
    def test_hash_and_equality_follow_the_fields(self, record, fields):
        same = type(record)(**fields)
        assert same == record and hash(same) == hash(record)
        first = next(iter(fields))
        other = type(record)(**{**fields, first: "changed"})
        assert other != record

    def test_match_of_a_stored_policy_compares_but_does_not_hash(self):
        # A stored Policy is a mutable record, so it has no hash.
        m = match("a", P, lens=(1, 2, 4))
        assert m == PolicyMatch(m.policy, 1, 2, 4)
        assert m != PolicyMatch(m.policy, 1, 2, 5)
        with pytest.raises(TypeError):
            hash(m)

    def test_lengths_and_primitives_unpack_in_slot_order(self):
        m = PolicyMatch("p", 1, 2, 4)
        assert m.total_len == 7
        policy, *lengths = m
        assert (policy, lengths) == ("p", [1, 2, 4])
        assert lengths == [m.len_sub, m.len_act, m.len_obj]
        q = AccessQuery(sub=5, act=6, obj=7)
        assert q == AccessQuery(5, 6, 7)
        sub, act, obj = q
        assert (sub, act, obj) == (5, 6, 7) == (q.sub, q.act, q.obj)

    def test_results_of_equal_inputs_are_equal(self):
        ms = [match("a", P, seq=0), match("b", D, seq=1)]
        for alg in ALGS:
            assert combine(ms, alg) == combine(list(ms), alg)
            assert combine(ms, alg).matches == tuple(ms)
