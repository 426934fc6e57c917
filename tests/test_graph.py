import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphabac import Graph, HAS_ATTR, load_model
from graphabac.errors import (
    AbacError,
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

    def test_labels_not_a_list_of_str_rejected(self):
        # A str would give one label per character, so ``"Policy"`` would
        # make a node that create_policy accepts as a condition.
        g = Graph()
        bad = ("Policy", ("Primitive", 1), ["Primitive", None], (b"Policy",), [["x"]], None)
        for labels in bad:
            with pytest.raises(GraphError, match="not a list of str"):
                g.add_node("x", labels)
        assert g.node_count() == 0
        assert g.node(g.add_node("x", ["Policy"])).labels == ("Policy",)

    def test_primitive_policy_label_clash_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_node("x", ("Primitive", "Policy"))

    def test_label_clash_is_an_engine_error(self):
        g = Graph()
        with pytest.raises(AbacError, match="both Primitive and Policy"):
            g.add_node("x", ["Policy", "Attribute", "Primitive"])
        assert g.node_count() == 0


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

    def test_bulk_insert_adds_as_add_node_does(self):
        # One insert of one-label nodes gives the refs, names, labels and
        # shared tuples that add_node would, and shares its label table.
        g, one_by_one = Graph(), Graph()
        g.add_node("x", ["Role"])
        one_by_one.add_node("x", ["Role"])
        assert g._add_nodes(("a", "b", "c"), ("Role", "Attribute", "Role"))
        for name, label in zip("abc", ("Role", "Attribute", "Role")):
            one_by_one.add_node(name, [label])
        assert list(g.nodes()) == list(one_by_one.nodes())
        assert g.find_node("c") == 3 and g.node(3).labels is g.node(0).labels
        assert g.node(g.add_node("d", ("Attribute",))).labels is g.node(2).labels
        assert g.node(3).properties is g.node(0).properties
        # A ref past the small ints CPython caches is one int, held by its
        # node and by the name table alike.
        names = [f"n{i}" for i in range(300)]
        assert g._add_nodes(names, ("Role",) * 300)
        assert g.node(g.find_node("n299")).ref is g._by_name["n299"]

    @pytest.mark.parametrize(
        "names", [("a", "x"), ("a", "b", "a"), ("a", "")], ids=["taken", "repeated", "empty"]
    )
    def test_bulk_insert_refuses_a_bad_name_whole(self, names):
        g = Graph()
        g.add_node("x", ["Role"])
        assert not g._add_nodes(names, ("Role",) * len(names))
        assert [n.name for n in g.nodes()] == ["x"] and g.find_node("a") is None
        assert len(g._children) == 1


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

    def test_negative_depth_rejected(self, healthcare):
        g = healthcare.graph
        with pytest.raises(ValueError, match="non-negative"):
            g.attribute_closure(g.find_node("MR_1234"), -1)

    def test_keys_in_discovery_order(self):
        # Random models are drawn from list(attribute_closure(...)), so the
        # key order is part of what fixes seeded test data: breadth-first,
        # each node's children in the order their first edges were added,
        # not in ascending refs.
        g = Graph()
        r, a, b, c, d, e = (g.add_node(n) for n in "rabcde")
        for src, dst in ((r, c), (r, a), (c, e), (a, d), (c, d), (a, b), (d, e), (r, c)):
            g.add_edge(src, HAS_ATTR, dst)
        expected = {0: [r], 1: [r, c, a], 2: [r, c, a, e, d, b], 3: [r, c, a, e, d, b]}
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

    def test_unfrozen_graph_has_no_depth(self):
        g = Graph()
        g.add_node("a")
        with pytest.raises(NotFrozenError):
            g.attr_depth

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
        assert before[4][r] == [r, b, a, c]

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


class TestChildrenUntilFreeze:
    """While the graph is built a node's children are a list that may repeat
    an edge; every reader, and freeze(), must see each child once, in the
    order its first edge was added."""

    @staticmethod
    def reference_closure(children, start, depth):
        dist, frontier = {start: 0}, [start]
        for d in range(1, depth + 1):
            found = []
            for n in frontier:
                for m in children[n]:
                    if m not in dist:
                        dist[m] = d
                        found.append(m)
            frontier = found
        return list(dist.items())

    @staticmethod
    def reference_trim(children, targets):
        reaches = {}

        def reach(n):
            if n not in reaches:
                reaches[n] = n in targets or any([reach(m) for m in children[n]])
            return reaches[n]

        return tuple(
            tuple(m for m in kids if reach(m)) if reach(n) else ()
            for n, kids in enumerate(children)
        )

    @staticmethod
    def reference_order(children):
        """Kahn's algorithm: the sources in ref order, then each node as its
        last parent is taken."""
        indeg = [0] * len(children)
        for kids in children:
            for m in kids:
                indeg[m] += 1
        order = [n for n, d in enumerate(indeg) if not d]
        for n in order:
            for m in children[n]:
                indeg[m] -= 1
                if not indeg[m]:
                    order.append(m)
        return order

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_incremental_sets(self, seed):
        rng = random.Random(seed)
        # Large refs among few children collide in a small set table, so a
        # set's order is neither first-added nor ascending order.
        n = rng.choice((8, 40, 300))
        g = Graph()
        refs = [g.add_node(f"n{i}") for i in range(n)]
        adds = [[] for _ in refs]
        added = []
        for _ in range(rng.randrange(4 * n)):
            # Mostly HAS_ATTR edges up the ref order (so no cycle), some of
            # them repeats, and some self-loops and other relationship types.
            src, roll = rng.randrange(n - 1), rng.random()
            dst = rng.randrange(src + 1, n)
            if roll < 0.1:
                with pytest.raises(SelfLoopError):
                    g.add_edge(src, HAS_ATTR, src)
            elif roll < 0.25:
                g.add_edge(src, "RELATES_TO", dst)
            else:
                if roll < 0.4 and added:
                    src, dst = rng.choice(added)
                added.append((src, dst))
                g.add_edge(src, HAS_ATTR, dst)
                adds[src].append(dst)
        sets = [dict.fromkeys(kids) for kids in adds]
        expected = [tuple(kids) for kids in sets]
        depth = rng.randrange(1, 6)
        starts = rng.sample(refs, min(n, 10))
        closures = [self.reference_closure(expected, r, depth) for r in starts]

        def observe():
            return [list(g.attribute_closure(r, depth).items()) for r in starts]

        assert observe() == closures
        assert [sorted(g.out_neighbors(r, HAS_ATTR)) for r in refs] == [sorted(k) for k in sets]
        assert g.edge_count(HAS_ATTR) == sum(map(len, sets))
        edges = list(g.edges())
        g.freeze()
        assert list(g._children) == expected
        assert observe() == closures
        assert list(g.edges()) == edges
        targets = [set(rng.sample(refs, rng.randrange(1, 4))) for _ in range(3)]
        assert g.trimmed_adjacency(targets) == tuple(
            self.reference_trim(expected, t) for t in targets
        )
        assert list(g._order) == self.reference_order(expected)
        # Every edge goes up the ref order, so refs are a topological order
        # too: a node's longest chain down, and its paths from the sources.
        down, paths = [0] * n, [0] * n
        for r in reversed(refs):
            down[r] = max([down[m] + 1 for m in expected[r]], default=0)
        for r in refs:
            paths[r] = sum(paths[p] for p in refs[:r] if r in sets[p]) or 1
        assert g.attr_depth == max(down)
        assert g.path_counts() == paths

        # The same adds, one edge repeated, and a back edge closing a cycle
        # u -> v -> u: every node the cycle reaches has a ref of at least u,
        # so freeze() names u and leaves the lists as they were built.
        u, v = rng.choice(added) if added else (0, 1)
        h = Graph()
        for i in range(n):
            h.add_node(f"n{i}")
        lists = [[] for _ in refs]
        for src, dst in added + [(u, v), (u, v), (v, u)]:
            h.add_edge(src, HAS_ATTR, dst)
            lists[src].append(dst)
        with pytest.raises(AttributeCycleError) as exc:
            h.freeze()
        assert exc.value.node_name == f"n{u}"
        assert h._children == lists and not h.frozen

    def test_building_holds_few_bytes_per_edge(self):
        # 2 000 nodes with 6 children each: a set per node costs about 85
        # bytes per edge (CPython 3.10-3.13), a list about 11.
        rng = random.Random(7)
        g = Graph()
        refs = [g.add_node(f"n{i}") for i in range(2006)]
        plan = [(r, dst) for r in refs[:2000] for dst in rng.sample(refs[r + 1:], 6)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for src, dst in plan:
                g.add_edge(src, HAS_ATTR, dst)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(plan) <= 24, f"{held / len(plan):.1f} bytes per edge"


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


def test_trimmed_adjacency_needs_a_frozen_graph():
    g, (a, b) = chain_graph("a", "b")
    with pytest.raises(NotFrozenError):
        g.trimmed_adjacency([{b}])
    g.freeze()
    assert g.trimmed_adjacency([{b}]) == (((b,), ()),)


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
