"""In-memory directed labeled property graph with attribute-chain reachability.

Nodes are addressed by a unique, case-sensitive, non-empty ``str`` name;
edges are typed and have set semantics (re-adding an existing edge adds no
edge).  Attribute inheritance runs along outgoing ``HAS_ATTR`` edges,
which must form a DAG.

The graph is built single-threaded, then frozen.  After ``freeze()`` every
mutator raises and any number of threads may run reachability queries
concurrently.

A ``Node`` is a slotted, frozen record (see ``records.py``) that hashes by
its ref, name and labels, since its properties do not hash.  A node's
labels are given as a list or tuple of ``str``, and ``add_node`` checks a
label list the first time it sees it.  Nodes with equal label lists share
one labels tuple, and a node's properties are a read-only
``MappingProxyType`` over the graph's own copy of them; every node
declared without properties shares one empty mapping.

``HAS_ATTR`` children are kept in a per-node sequence indexed by ref.
While the graph is built a node's children are a plain list, each edge
appended as it is added, so a repeated edge may appear twice; a list costs
far less memory than a set.  ``freeze()`` turns each list into
``tuple(dict.fromkeys(children))``: every child once, in the order its
first edge was added.  A closure skips a child it has already reached, so
its keys come out in the same breadth-first discovery order before and
after freezing, and every query shares the immutable tuples.  Other
relationship types keep their own map; reachability never reads it.

``trimmed_adjacency`` derives, from a frozen graph, one copy of the
children per given set of targets, each keeping only the nodes that can
reach a target of its set.  One pass in reverse topological order gives
each node a bit mask of the sets it reaches, and the copies share every
tuple they can: the graph's own where no child is dropped, and one kept
tuple where two copies keep the same children.  A closure over a copy
gives the same hop count as the full graph to every target of its set,
because every node on a shortest path to a target reaches that target.
Each ``PolicySnapshot`` of a store holds one such copy per condition slot,
for that slot's condition nodes, and no query changes them (see
``policy.py``).
"""

from __future__ import annotations

from array import array
from types import MappingProxyType
from typing import Collection, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    AttributeCycleError,
    DuplicateNameError,
    EmptyNameError,
    FrozenGraphError,
    GraphError,
    LabelClashError,
    NotFrozenError,
    SelfLoopError,
    UnknownNodeError,
)
from .records import FrozenRecord, _set

NodeRef = int
Scalar = Union[str, int, float, bool]

HAS_ATTR = "HAS_ATTR"

# Children over HAS_ATTR, indexed by node ref.
Adjacency = Sequence[Collection[NodeRef]]

PRIMITIVE_LABEL = "Primitive"
POLICY_LABEL = "Policy"


# The properties of every node declared without any.
_NO_PROPERTIES: Mapping[str, Scalar] = MappingProxyType({})


class Node(FrozenRecord):
    __slots__ = ("ref", "name", "labels", "properties")

    def __init__(
        self,
        ref: NodeRef,
        name: str,
        labels: tuple[str, ...],
        # Read-only: a MappingProxyType over the graph's own copy.
        properties: Mapping[str, Scalar] = _NO_PROPERTIES,
    ) -> None:
        _set(self, "ref", ref)
        _set(self, "name", name)
        _set(self, "labels", labels)
        _set(self, "properties", properties)

    def __hash__(self) -> int:
        # The properties are a mappingproxy, which does not hash; nodes equal
        # by every field are equal by these.
        return hash((self.ref, self.name, self.labels))

    def has_label(self, label: str) -> bool:
        return label in self.labels


class Graph:
    """Adjacency-indexed node/edge store keyed by node name."""

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._by_name: dict[str, NodeRef] = {}
        # One tuple per distinct label list, shared by every node with it.
        self._labels: dict[tuple[str, ...], tuple[str, ...]] = {}
        # HAS_ATTR children by ref: lists, in the order the edges were
        # added and with any repeat, while the graph is built; after
        # freeze(), a tuple of each list's distinct children in that order.
        self._children: Adjacency = []
        # ref -> rel_type -> set of target refs, for every type but HAS_ATTR
        self._out: dict[NodeRef, dict[str, set[NodeRef]]] = {}
        self._frozen = False
        self._attr_depth: Optional[int] = None
        # Every node after all of its HAS_ATTR parents, fixed by freeze().
        self._order = array("l")

    # -- construction -------------------------------------------------

    def add_node(
        self,
        name: str,
        labels: tuple[str, ...] | list[str] = (),
        properties: Optional[Mapping[str, Scalar]] = None,
    ) -> NodeRef:
        self._check_mutable()
        if not isinstance(name, str):
            raise GraphError(f"node name {name!r} is not a str")
        if not name:
            raise EmptyNameError("node name must be non-empty")
        if name in self._by_name:
            raise DuplicateNameError(f"node {name!r} already exists")
        # A str is iterable, but as labels it would give one per character.
        if isinstance(labels, str):
            raise GraphError(f"node {name!r} has labels {labels!r}, a str, not a list of str")
        try:
            ordered = tuple(dict.fromkeys(labels))
        except TypeError:
            raise GraphError(f"node {name!r} has labels {labels!r}, not a list of str") from None
        # A label list already in the table passed these checks.
        if (shared := self._labels.get(ordered)) is None:
            if not all(isinstance(label, str) for label in ordered):
                raise GraphError(f"node {name!r} has labels {labels!r}, not a list of str")
            if PRIMITIVE_LABEL in ordered and POLICY_LABEL in ordered:
                raise LabelClashError(f"node {name!r} cannot be both Primitive and Policy")
            shared = self._labels[ordered] = ordered
        props = MappingProxyType(dict(properties)) if properties else _NO_PROPERTIES
        ref = len(self._nodes)
        self._nodes.append(Node(ref, name, shared, props))
        self._by_name[name] = ref
        self._children.append([])
        return ref

    def _add_nodes(self, names: Sequence[str], labels: Sequence[str]) -> bool:
        """``add_node`` each str name with the str label at its place, and
        return True; or, if a name is empty, taken or repeated, add none
        and return False."""
        self._check_mutable()
        unique = set(names)
        if len(unique) < len(names) or "" in unique or not self._by_name.keys().isdisjoint(unique):
            return False
        # A one-label list passes add_node's label checks.
        table = self._labels
        shared = {label: table.setdefault((label,), (label,)) for label in set(labels)}
        # One int per ref, held by its node and the name table alike.
        refs = list(range(len(self._nodes), len(self._nodes) + len(names)))
        self._nodes += map(Node, refs, names, map(shared.__getitem__, labels))
        self._by_name.update(zip(names, refs))
        self._children += [[] for _ in refs]
        return True

    def add_edge(self, src: NodeRef, rel_type: str, dst: NodeRef) -> None:
        self._check_mutable()
        self._check_ref(src)
        self._check_ref(dst)
        self._link(src, rel_type, dst)

    def _link(self, src: NodeRef, rel_type: str, dst: NodeRef) -> None:
        """Add the edge between two refs already checked, on a graph not
        yet frozen: the one place an edge is routed by its type."""
        if rel_type != HAS_ATTR:
            self._out.setdefault(src, {}).setdefault(rel_type, set()).add(dst)
        elif src == dst:
            raise SelfLoopError(f"HAS_ATTR self-loop on {self._nodes[src].name!r}")
        else:
            self._children[src].append(dst)

    def _link_attrs(self, srcs: Sequence[NodeRef], dsts: Sequence[NodeRef]) -> None:
        """``_link`` a HAS_ATTR edge from each src to its dst, no self-loop."""
        children = self._children
        for src, dst in zip(srcs, dsts):
            children[src].append(dst)

    def freeze(self) -> None:
        """Finish the build phase: turn each node's children into a tuple,
        and keep a topological order of the tuples for the passes over the
        frozen graph and the longest HAS_ATTR chain as the traversal bound.

        One pass of Kahn's algorithm over the tuples gives the order, each
        node's longest chain from a source and the cycle check.  A cycle
        raises AttributeCycleError, naming the first node by ref still left
        with a parent, before anything is assigned: the graph stays
        unfrozen, its children still the lists."""
        # Every tuple is made before any list is freed.  Made one by one in
        # the memory of the lists freed before them, they would lie
        # scattered, and every walk over the frozen graph would run slower.
        children = tuple([tuple(dict.fromkeys(kids)) for kids in self._children])
        indeg = [0] * len(children)
        for kids in children:
            for dst in kids:
                indeg[dst] += 1
        order = [r for r, d in enumerate(indeg) if not d]
        longest = [0] * len(children)
        for r in order:
            for dst in children[r]:
                if longest[r] + 1 > longest[dst]:
                    longest[dst] = longest[r] + 1
                indeg[dst] -= 1
                if not indeg[dst]:
                    order.append(dst)
        if len(order) < len(children):
            culprit = next(r for r, d in enumerate(indeg) if d)
            raise AttributeCycleError(self._nodes[culprit].name)
        self._children = children
        self._attr_depth = max(longest, default=0)
        self._order = array("l", order)
        self._frozen = True

    # -- lookups ------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def attr_depth(self) -> int:
        if self._attr_depth is None:
            raise NotFrozenError("attr_depth is only available after freeze()")
        return self._attr_depth

    def find_node(self, name: str) -> Optional[NodeRef]:
        return self._by_name.get(name)

    def node(self, ref: NodeRef) -> Node:
        self._check_ref(ref)
        return self._nodes[ref]

    def node_count(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    def node_table(self) -> Sequence[Node]:
        """Every node, indexed by ref, with no check per read: the graph's
        own list, which callers must not change."""
        return self._nodes

    def edges(self) -> Iterator[tuple[NodeRef, str, NodeRef]]:
        """Every edge as (source, type, target), by source ref, then type, then target ref."""
        for src, children in enumerate(self._children):
            rels = {HAS_ATTR: set(children), **self._out.get(src, {})}
            for rel_type in sorted(rels):
                for dst in sorted(rels[rel_type]):
                    yield src, rel_type, dst

    def edge_count(self, rel_type: Optional[str] = None) -> int:
        return sum(rel_type in (None, rt) for _, rt, _ in self.edges())

    def has_edge(self, src: NodeRef, rel_type: str, dst: NodeRef) -> bool:
        self._check_ref(dst)
        return dst in self._targets(src, rel_type)

    def out_neighbors(self, ref: NodeRef, rel_type: str) -> frozenset[NodeRef]:
        return frozenset(self._targets(ref, rel_type))

    # -- reachability -------------------------------------------------

    def attribute_closure(
        self, start: NodeRef, max_depth: int, adjacency: Optional[Adjacency] = None
    ) -> dict[NodeRef, int]:
        """BFS over outgoing HAS_ATTR edges, bounded by ``max_depth`` hops.

        Returns minimal hop counts, keyed in discovery order; always
        contains ``start -> 0``.  The walk follows ``adjacency`` when one is
        given (a ``trimmed_adjacency`` of this graph) and the graph's own
        children otherwise.
        """
        self._check_ref(start)
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        adj = self._children if adjacency is None else adjacency
        dist = {start: 0}
        frontier = [start]
        for d in range(1, max_depth + 1):
            found = []
            for n in frontier:
                for m in adj[n]:
                    if m not in dist:
                        dist[m] = d
                        found.append(m)
            if not found:
                break
            frontier = found
        return dist

    def trimmed_adjacency(
        self, targets: Sequence[Collection[NodeRef]]
    ) -> tuple[tuple[tuple[NodeRef, ...], ...], ...]:
        """One copy of the frozen graph's children per collection of
        ``targets``, in order.  Copy ``i`` leaves out every node that cannot
        reach a node of ``targets[i]`` over HAS_ATTR: such a node keeps no
        children and no edge leads to it.  A node's children keep their
        order.

        One pass in reverse topological order gives each node a bit mask of
        the positions of ``targets`` it reaches.  A node whose children all
        reach a position's targets keeps the graph's own tuple in that
        copy, and a trimmed tuple that two copies share is stored once.
        """
        if not self._frozen:
            raise NotFrozenError("freeze the graph before trimming it")
        adj = self._children
        reaches = [0] * len(adj)
        for i, nodes in enumerate(targets):
            for n in nodes:
                reaches[n] |= 1 << i
        slots = [(1 << i, [()] * len(adj)) for i in range(len(targets))]
        for n in reversed(self._order):
            children = adj[n]
            if not children:
                continue
            masks = [reaches[m] for m in children]
            every = some = masks[0]
            for mask in masks:
                every &= mask
                some |= mask
            reaches[n] |= some
            kept_once: dict[tuple[NodeRef, ...], tuple[NodeRef, ...]] = {}
            for bit, copy in slots:
                if every & bit:
                    copy[n] = children
                elif some & bit:
                    kept = tuple(m for m, mask in zip(children, masks) if mask & bit)
                    copy[n] = kept_once.setdefault(kept, kept)
        # Each copy's list is freed as soon as its tuple is made.
        copies = [copy for _, copy in slots]
        del slots
        for i, copy in enumerate(copies):
            copies[i] = tuple(copy)
        return tuple(copies)

    def path_counts(self) -> list[int]:
        """For each node of the frozen graph, the number of HAS_ATTR paths
        that reach it from a source node (one with no parent), a source
        counting itself as one: an estimate of how many query closures
        hold the node.  One pass in topological order.
        """
        if not self._frozen:
            raise NotFrozenError("freeze the graph before counting paths")
        adj = self._children
        counts = [0] * len(adj)
        for n in self._order:
            # Every parent comes first and adds at least one, so a count
            # still at zero here is a source's.
            c = counts[n] = counts[n] or 1
            for m in adj[n]:
                counts[m] += c
        return counts

    # -- internal -----------------------------------------------------

    def _targets(self, src: NodeRef, rel_type: str) -> Collection[NodeRef]:
        self._check_ref(src)
        if rel_type == HAS_ATTR:
            return self._children[src]
        return self._out.get(src, {}).get(rel_type, ())

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenGraphError("graph is frozen; mutation is not allowed")

    def _check_ref(self, ref: NodeRef) -> None:
        # A bool is an int, but names no node.
        if type(ref) is not int or not 0 <= ref < len(self._nodes):
            raise UnknownNodeError(f"no node with ref {ref!r}")
