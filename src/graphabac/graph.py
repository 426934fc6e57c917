"""In-memory directed labeled property graph with attribute-chain reachability.

Nodes are addressed by a unique, case-sensitive name; edges are typed and
have set semantics (re-adding an existing edge is a no-op).  Attribute
inheritance runs along outgoing ``HAS_ATTR`` edges, which must form a DAG.

The graph is built single-threaded, then frozen.  After ``freeze()`` every
mutator raises and any number of threads may run reachability queries
concurrently.

Reachability runs over an adjacency snapshot, not over the edge sets:
``freeze()`` compiles ``HAS_ATTR`` into one tuple of child refs per node,
in the edge sets' iteration order, so a closure's keys come out in the
same breadth-first discovery order as a walk over the sets would give.
The snapshot is immutable and shared by every query.  Before ``freeze()``
it is built on the first closure and dropped by ``add_node`` and
``add_edge``, so closures on a graph under construction stay current.

``trimmed_adjacency`` derives a copy of the snapshot that keeps only the
nodes that can reach a given set of targets, in one pass in reverse
topological order.  A closure over that copy gives the same hop count as
the full snapshot to every target, because every node on a shortest path
to a target reaches that target.  ``PolicyStore`` keeps such a copy for
its condition nodes.  It builds the copy lazily, under a lock, and then
only reads it, so concurrent queries on a frozen graph stay safe (see
``policy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    AttributeCycleError,
    DuplicateNameError,
    EmptyNameError,
    FrozenGraphError,
    SelfLoopError,
    UnknownNodeError,
)

NodeRef = int
Scalar = Union[str, int, float, bool]

HAS_ATTR = "HAS_ATTR"

# Children over HAS_ATTR, indexed by node ref.
Adjacency = Sequence[Sequence[NodeRef]]

PRIMITIVE_LABEL = "Primitive"
POLICY_LABEL = "Policy"


@dataclass(frozen=True)
class Node:
    ref: NodeRef
    name: str
    labels: tuple[str, ...]
    properties: Mapping[str, Scalar] = field(default_factory=dict)

    def has_label(self, label: str) -> bool:
        return label in self.labels


class Graph:
    """Adjacency-indexed node/edge store keyed by node name."""

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._by_name: dict[str, NodeRef] = {}
        # ref -> rel_type -> set of target refs
        self._out: dict[NodeRef, dict[str, set[NodeRef]]] = {}
        self._frozen = False
        self._attr_depth: Optional[int] = None
        self._snapshot: Optional[tuple[tuple[NodeRef, ...], ...]] = None

    # -- construction -------------------------------------------------

    def add_node(
        self,
        name: str,
        labels: tuple[str, ...] | list[str] = (),
        properties: Optional[Mapping[str, Scalar]] = None,
    ) -> NodeRef:
        self._check_mutable()
        if not name:
            raise EmptyNameError("node name must be non-empty")
        if name in self._by_name:
            raise DuplicateNameError(f"node {name!r} already exists")
        ordered: list[str] = []
        for lab in labels:
            if lab not in ordered:
                ordered.append(lab)
        if PRIMITIVE_LABEL in ordered and POLICY_LABEL in ordered:
            raise ValueError(f"node {name!r} cannot be both Primitive and Policy")
        ref = len(self._nodes)
        self._nodes.append(Node(ref, name, tuple(ordered), dict(properties or {})))
        self._by_name[name] = ref
        self._snapshot = None
        return ref

    def add_edge(self, src: NodeRef, rel_type: str, dst: NodeRef) -> None:
        self._check_mutable()
        self._check_ref(src)
        self._check_ref(dst)
        if rel_type == HAS_ATTR and src == dst:
            raise SelfLoopError(f"HAS_ATTR self-loop on {self._nodes[src].name!r}")
        self._out.setdefault(src, {}).setdefault(rel_type, set()).add(dst)
        self._snapshot = None

    def freeze(self, attr_depth: Optional[int] = None) -> None:
        """Finish the build phase.

        ``attr_depth`` may only raise the traversal bound above the computed
        maximum chain length; it never lowers it.  Computing that length
        builds the HAS_ATTR snapshot, which every later closure shares.
        """
        computed = self.attribute_depth()
        self._attr_depth = max(computed, attr_depth or 0)
        self._frozen = True

    # -- lookups ------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def attr_depth(self) -> int:
        if self._attr_depth is None:
            raise FrozenGraphError("attr_depth is only available after freeze()")
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

    def edges(self) -> Iterator[tuple[NodeRef, str, NodeRef]]:
        for src in sorted(self._out):
            for rel_type in sorted(self._out[src]):
                for dst in sorted(self._out[src][rel_type]):
                    yield src, rel_type, dst

    def edge_count(self, rel_type: Optional[str] = None) -> int:
        total = 0
        for rels in self._out.values():
            for rt, targets in rels.items():
                if rel_type is None or rt == rel_type:
                    total += len(targets)
        return total

    def has_edge(self, src: NodeRef, rel_type: str, dst: NodeRef) -> bool:
        return dst in self._out.get(src, {}).get(rel_type, ())

    def out_neighbors(self, ref: NodeRef, rel_type: str) -> frozenset[NodeRef]:
        self._check_ref(ref)
        return frozenset(self._out.get(ref, {}).get(rel_type, ()))

    # -- reachability -------------------------------------------------

    def attribute_adjacency(self) -> tuple[tuple[NodeRef, ...], ...]:
        """The HAS_ATTR snapshot: the children of every node, by ref."""
        snapshot = self._snapshot
        if snapshot is None:
            empty: dict[str, set[NodeRef]] = {}
            out = self._out
            snapshot = self._snapshot = tuple(
                tuple(out.get(n, empty).get(HAS_ATTR, ())) for n in range(len(self._nodes))
            )
        return snapshot

    def attribute_closure(
        self, start: NodeRef, max_depth: int, adjacency: Optional[Adjacency] = None
    ) -> dict[NodeRef, int]:
        """BFS over outgoing HAS_ATTR edges, bounded by ``max_depth`` hops.

        Returns minimal hop counts, keyed in discovery order; always
        contains ``start -> 0``.  The walk follows ``adjacency`` when one is
        given (a ``trimmed_adjacency`` of this graph) and the snapshot
        otherwise.
        """
        self._check_ref(start)
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        adj = self.attribute_adjacency() if adjacency is None else adjacency
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

    def trimmed_adjacency(self, targets: Collection[NodeRef]) -> tuple[tuple[NodeRef, ...], ...]:
        """The snapshot without every node that cannot reach a node of
        ``targets`` over HAS_ATTR: such a node keeps no children and no
        edge leads to it.  A node's children keep their snapshot order.
        """
        adj = self.attribute_adjacency()
        reaches = [False] * len(adj)
        trimmed: list[tuple[NodeRef, ...]] = [()] * len(adj)
        for n in reversed(self._topological_order()):
            children = adj[n]
            kept = tuple(m for m in children if reaches[m])
            # Sharing the snapshot's tuple when nothing was dropped keeps
            # the copy small.
            trimmed[n] = children if len(kept) == len(children) else kept
            reaches[n] = bool(kept) or n in targets
        return tuple(trimmed)

    def attribute_depth(self) -> int:
        """Length of the longest simple HAS_ATTR path (longest path on a DAG).

        Raises AttributeCycleError, naming one node on the cycle, if the
        HAS_ATTR subgraph is not acyclic.
        """
        adj = self.attribute_adjacency()
        longest = [0] * len(adj)
        for r in self._topological_order():
            for dst in adj[r]:
                if longest[r] + 1 > longest[dst]:
                    longest[dst] = longest[r] + 1
        return max(longest, default=0)

    # -- internal -----------------------------------------------------

    def _topological_order(self) -> list[NodeRef]:
        """Every node, each after all of its HAS_ATTR parents (Kahn's
        algorithm); raises AttributeCycleError, naming one node on a cycle,
        if there is none."""
        adj = self.attribute_adjacency()
        indeg = [0] * len(adj)
        for children in adj:
            for dst in children:
                indeg[dst] += 1
        order = [r for r in range(len(adj)) if indeg[r] == 0]
        for r in order:
            for dst in adj[r]:
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    order.append(dst)
        if len(order) < len(adj):
            culprit = next(r for r in range(len(adj)) if indeg[r] > 0)
            raise AttributeCycleError(self._nodes[culprit].name)
        return order

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenGraphError("graph is frozen; mutation is not allowed")

    def _check_ref(self, ref: NodeRef) -> None:
        if not isinstance(ref, int) or not 0 <= ref < len(self._nodes):
            raise UnknownNodeError(f"no node with ref {ref!r}")
