import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphabac import Graph, HAS_ATTR, load_model
from graphabac.errors import (
    AttributeCycleError,
    DuplicateNameError,
    EmptyNameError,
    FrozenGraphError,
    GraphError,
    NotFrozenError,
    SelfLoopError,
    UnknownNodeError,
)


def chain_graph(*names):
    g = Graph()
    refs = [g.add_node(n) for n in names]
    for a, b in zip(refs, refs[1:]):
        g.add_edge(a, HAS_ATTR, b)
    return g, refs


class TestAddNode:
    def test_returns_stable_ref(self):
        g = Graph()
        ref = g.add_node("Peter", ("Subject", "User", "Primitive"))
        assert g.find_node("Peter") == ref
        assert g.node(ref).labels == ("Subject", "User", "Primitive")

    def test_duplicate_name_rejected(self):
        g = Graph()
        g.add_node("Peter")
        with pytest.raises(DuplicateNameError):
            g.add_node("Peter")

    def test_empty_name_rejected(self):
        g = Graph()
        with pytest.raises(EmptyNameError):
            g.add_node("")

    def test_name_not_a_str_rejected(self):
        # A non-str name would be exported to Cypher as another type.
        g = Graph()
        for name in (123, None, b"x", ["x"]):
            with pytest.raises(GraphError, match="not a str"):
                g.add_node(name, ["Primitive"])
        assert g.node_count() == 0

    def test_primitive_policy_label_clash_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_node("x", ("Primitive", "Policy"))


class TestNodeRecords:
    def test_properties_read_only_after_load(self):
        g = load_model("node a : Attribute {k = 1}\nnode b : Attribute\n").graph
        for name in ("a", "b"):
            with pytest.raises(TypeError):
                g.node(g.find_node(name)).properties["k"] = 2
        assert g.node(g.find_node("a")).properties == {"k": 1}
        assert g.node(g.find_node("b")).properties == {}

    def test_properties_copied_from_the_caller(self):
        g = Graph()
        props = {"k": 1}
        ref = g.add_node("a", ("Attribute",), props)
        props["k"] = 2
        assert g.node(ref).properties == {"k": 1}

    def test_nodes_without_properties_share_one_mapping(self):
        g = load_model("node a : Attribute\nnode b : Role\nnode c : Attribute\n").graph
        a, b, c = (g.node(g.find_node(n)) for n in "abc")
        assert a.properties is b.properties is c.properties

    def test_equal_label_lists_share_one_tuple(self):
        g = Graph()
        a = g.add_node("a", ["Role", "Attribute"])
        b = g.add_node("b", ("Role", "Attribute", "Role"))
        c = g.add_node("c", ("Attribute", "Role"))
        assert g.node(a).labels == ("Role", "Attribute")
        assert g.node(a).labels is g.node(b).labels
        assert g.node(c).labels == ("Attribute", "Role")


class TestAddEdge:
    def test_idempotent(self):
        g, (a, b) = chain_graph("Joe", "HospitalStaff")
        before = g.edge_count()
        g.add_edge(a, HAS_ATTR, b)
        assert g.edge_count() == before
        assert g.has_edge(a, HAS_ATTR, b)

    def test_unknown_node_rejected(self):
        g = Graph()
        a = g.add_node("a")
        with pytest.raises(UnknownNodeError):
            g.add_edge(a, HAS_ATTR, 99)

    def test_has_attr_self_loop_rejected(self):
        g = Graph()
        a = g.add_node("Read")
        with pytest.raises(SelfLoopError):
            g.add_edge(a, HAS_ATTR, a)

    def test_other_rel_self_loop_allowed(self):
        g = Graph()
        a = g.add_node("a")
        g.add_edge(a, "RELATES_TO", a)
        assert g.has_edge(a, "RELATES_TO", a)


class TestFindNode:
    def test_case_sensitive(self, healthcare):
        g = healthcare.graph
        assert g.find_node("MR_1234") is not None
        assert g.find_node("mr_1234") is None

    def test_absent_is_none(self):
        assert Graph().find_node("Ghost") is None


class TestAttributeClosure:
    def test_healthcare_record_chain(self, healthcare):
        g = healthcare.graph
        start = g.find_node("MR_1234")
        closure = g.attribute_closure(start, 5)
        names = {g.node(r).name: d for r, d in closure.items()}
        assert names == {
            "MR_1234": 0,
            "Peter's Medical Records": 1,
            "Hospital Records": 2,
        }

    def test_zero_depth_is_start_only(self, healthcare):
        g = healthcare.graph
        start = g.find_node("MR_1234")
        assert g.attribute_closure(start, 0) == {start: 0}

    def test_depth_one_truncates(self, healthcare):
        g = healthcare.graph
        start = g.find_node("MR_1234")
        closure = g.attribute_closure(start, 1)
        names = {g.node(r).name: d for r, d in closure.items()}
        assert names == {"MR_1234": 0, "Peter's Medical Records": 1}

    def test_unknown_start_rejected(self):
        with pytest.raises(UnknownNodeError):
            Graph().attribute_closure(0, 3)

    def test_keys_in_discovery_order(self):
        # Random models are drawn from list(attribute_closure(...)), so the
        # key order is part of what fixes seeded test data: breadth-first,
        # each node's children in the order of its edge set (ascending refs
        # for small ints), whatever order the edges were added in.
        g = Graph()
        r, a, b, c, d, e = (g.add_node(n) for n in "rabcde")
        for src, dst in ((r, c), (r, a), (c, e), (a, d), (c, d), (a, b), (d, e)):
            g.add_edge(src, HAS_ATTR, dst)
        expected = {0: [r], 1: [r, a, c], 2: [r, a, c, b, d, e], 3: [r, a, c, b, d, e]}
        for depth, order in expected.items():
            assert list(g.attribute_closure(r, depth)) == order
        assert g.attribute_closure(r, 3) == {r: 0, a: 1, c: 1, b: 2, d: 2, e: 2}
        g.add_edge(b, HAS_ATTR, e)
        f = g.add_node("f")
        g.add_edge(e, HAS_ATTR, f)
        g.freeze()
        for depth, order in expected.items():
            assert list(g.attribute_closure(r, depth)) == order + [f] * (depth == 3)


class TestAttributeDepth:
    def test_healthcare_depth_is_two(self, healthcare):
        assert healthcare.graph.attr_depth == 2

    def test_no_edges_depth_zero(self):
        g = Graph()
        g.add_node("a")
        g.freeze()
        assert g.attr_depth == 0

    def test_cycle_reported_with_node_name(self):
        g, (a, b) = chain_graph("A", "B")
        g.add_edge(b, HAS_ATTR, a)
        with pytest.raises(AttributeCycleError) as exc:
            g.freeze()
        assert exc.value.node_name in ("A", "B")

    def test_cycle_leaves_graph_unfrozen(self):
        g, (a, b) = chain_graph("A", "B")
        g.add_edge(b, HAS_ATTR, a)
        with pytest.raises(AttributeCycleError):
            g.freeze()
        assert not g.frozen
        c = g.add_node("C")
        g.add_edge(a, HAS_ATTR, c)
        assert g.attribute_closure(a, 2) == {a: 0, b: 1, c: 1}


class TestFreeze:
    def test_mutation_after_freeze_rejected(self):
        g, (a, b) = chain_graph("a", "b")
        g.freeze()
        with pytest.raises(FrozenGraphError):
            g.add_node("c")
        with pytest.raises(FrozenGraphError):
            g.add_edge(a, HAS_ATTR, b)

    def test_edges_read_the_same_before_and_after(self):
        # HAS_ATTR and other relationship types are stored apart; every
        # edge reader must report both, the same way on either side of
        # freeze().
        g = Graph()
        r, a, b, c = (g.add_node(n) for n in "rabc")
        for src, rel, dst in (
            (r, HAS_ATTR, b), (r, "SUB_CON", c), (r, HAS_ATTR, a), (a, HAS_ATTR, c),
            (c, "RELATES_TO", c), (b, "SUB_CON", a), (r, "RELATES_TO", a),
        ):
            g.add_edge(src, rel, dst)

        def observe():
            refs = range(g.node_count())
            rels = (HAS_ATTR, "SUB_CON", "RELATES_TO", "ABSENT")
            return (
                list(g.edges()),
                [g.edge_count(rel) for rel in (None, *rels)],
                [g.has_edge(x, rel, y) for x in refs for rel in rels for y in refs],
                [g.out_neighbors(x, rel) for x in refs for rel in rels],
                [list(g.attribute_closure(x, 2)) for x in refs],
            )

        before = observe()
        g.freeze()
        assert observe() == before
        edges, counts = before[:2]
        assert edges == [
            (r, HAS_ATTR, a), (r, HAS_ATTR, b), (r, "RELATES_TO", a), (r, "SUB_CON", c),
            (a, HAS_ATTR, c), (b, "SUB_CON", a), (c, "RELATES_TO", c),
        ]
        assert counts == [7, 3, 2, 2, 0]
        assert before[4][r] == [r, a, b, c]

    @pytest.mark.parametrize("frozen", [False, True])
    def test_edge_lookups_reject_unknown_refs(self, frozen):
        # Children are a list indexed by ref, so a negative ref would wrap
        # to the last node instead of failing.
        g, (a, b) = chain_graph("a", "b")
        if frozen:
            g.freeze()
        for bad in (-1, 2, True):
            with pytest.raises(UnknownNodeError):
                g.attribute_closure(bad, 1)
            with pytest.raises(UnknownNodeError):
                g.has_edge(bad, HAS_ATTR, b)
            with pytest.raises(UnknownNodeError):
                g.has_edge(a, HAS_ATTR, bad)
            with pytest.raises(UnknownNodeError):
                g.out_neighbors(bad, HAS_ATTR)
            with pytest.raises(UnknownNodeError):
                g.out_neighbors(bad, "RELATES_TO")


# -- randomized properties -------------------------------------------


@st.composite
def small_dags(draw):
    """Graph of <= 12 nodes whose HAS_ATTR edges go up the node order."""
    n = draw(st.integers(min_value=1, max_value=12))
    g = Graph()
    refs = [g.add_node(f"n{i}") for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        chosen = draw(
            st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)
        )
        for i, j in chosen:
            g.add_edge(refs[i], HAS_ATTR, refs[j])
    return g, refs


def enumerate_shortest(g, start, max_depth):
    """Exhaustive DFS over simple paths; the independent distance oracle."""
    best = {start: 0}

    def walk(node, hops, on_path):
        if hops == max_depth:
            return
        for m in sorted(g.out_neighbors(node, HAS_ATTR)):
            if m in on_path:
                continue
            if hops + 1 < best.get(m, max_depth + 1):
                best[m] = hops + 1
            on_path.add(m)
            walk(m, hops + 1, on_path)
            on_path.remove(m)

    walk(start, 0, {start})
    return best


@given(small_dags(), st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_closure_monotone_in_depth(gr, d1, d2):
    g, refs = gr
    lo, hi = sorted((d1, d2))
    for r in refs:
        small = g.attribute_closure(r, lo)
        big = g.attribute_closure(r, hi)
        assert set(small) <= set(big)
        for node, hops in small.items():
            assert big[node] == hops


@given(small_dags())
def test_closure_zero_depth(gr):
    g, refs = gr
    for r in refs:
        assert g.attribute_closure(r, 0) == {r: 0}


@settings(max_examples=60)
@given(small_dags(), st.integers(min_value=0, max_value=12))
def test_closure_matches_path_enumeration(gr, depth):
    g, refs = gr
    for r in refs:
        assert g.attribute_closure(r, depth) == enumerate_shortest(g, r, depth)


def enumerate_longest(g, start, max_depth):
    best = 0

    def walk(node, hops, on_path):
        nonlocal best
        best = max(best, hops)
        if hops == max_depth:
            return
        for m in sorted(g.out_neighbors(node, HAS_ATTR)):
            if m not in on_path:
                on_path.add(m)
                walk(m, hops + 1, on_path)
                on_path.remove(m)

    walk(start, 0, {start})
    return best


@settings(max_examples=60)
@given(small_dags())
def test_depth_equals_longest_simple_path(gr):
    g, refs = gr
    n = g.node_count()
    # Longest simple chain, by brute-force enumeration; this dominates the
    # max BFS hop count (shortcut edges can make BFS distances shorter).
    expected = max(enumerate_longest(g, r, n) for r in refs)
    max_hops = max(
        max(g.attribute_closure(r, n).values(), default=0) for r in refs
    )
    g.freeze()
    assert g.attr_depth == expected
    assert g.attr_depth >= max_hops


@given(small_dags())
def test_edge_set_semantics(gr):
    g, _ = gr
    triples = list(g.edges())
    assert len(triples) == len(set(triples))


def test_path_counts_on_a_diamond():
    # s1 -> a -> c, s1 -> b -> c, s2 -> c: three source paths end at c.
    g = Graph()
    s1, s2, a, b, c = (g.add_node(n) for n in ("s1", "s2", "a", "b", "c"))
    for src, dst in ((s1, a), (s1, b), (a, c), (b, c), (s2, c)):
        g.add_edge(src, HAS_ATTR, dst)
    with pytest.raises(NotFrozenError):
        g.path_counts()
    g.freeze()
    assert g.path_counts() == [1, 1, 1, 1, 3]


@settings(max_examples=60)
@given(small_dags())
def test_path_counts_match_path_enumeration(gr):
    g, refs = gr
    g.freeze()
    parents = {r: [p for p in refs if r in g.out_neighbors(p, HAS_ATTR)] for r in refs}

    def paths_to(node):
        # Every path from a source ends at node; a source's own is the empty one.
        return 1 if not parents[node] else sum(paths_to(p) for p in parents[node])

    assert g.path_counts() == [paths_to(r) for r in refs]
