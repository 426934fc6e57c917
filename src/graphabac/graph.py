"""In-memory directed labeled property graph with attribute-chain reachability.

Nodes are addressed by a unique, case-sensitive name; edges are typed and
have set semantics (re-adding an existing edge is a no-op).  Attribute
inheritance runs along outgoing ``HAS_ATTR`` edges, which must form a DAG.

The graph is built single-threaded, then frozen.  After ``freeze()`` every
mutator raises and any number of threads may run reachability queries
concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

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
        return ref

    def add_edge(self, src: NodeRef, rel_type: str, dst: NodeRef) -> None:
        self._check_mutable()
        self._check_ref(src)
        self._check_ref(dst)
        if rel_type == HAS_ATTR and src == dst:
            raise SelfLoopError(f"HAS_ATTR self-loop on {self._nodes[src].name!r}")
        self._out.setdefault(src, {}).setdefault(rel_type, set()).add(dst)

    def freeze(self, attr_depth: Optional[int] = None) -> None:
        """Finish the build phase.

        ``attr_depth`` may only raise the traversal bound above the computed
        maximum chain length; it never lowers it.
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

    def attribute_closure(self, start: NodeRef, max_depth: int) -> dict[NodeRef, int]:
        """BFS over outgoing HAS_ATTR edges, bounded by ``max_depth`` hops.

        Returns minimal hop counts; always contains ``start -> 0``.
        """
        self._check_ref(start)
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        dist = {start: 0}
        frontier = deque([start])
        while frontier:
            n = frontier.popleft()
            d = dist[n]
            if d == max_depth:
                continue
            for m in self._out.get(n, {}).get(HAS_ATTR, ()):
                if m not in dist:
                    dist[m] = d + 1
                    frontier.append(m)
        return dist

    def attribute_depth(self) -> int:
        """Length of the longest simple HAS_ATTR path (longest path on a DAG).

        Raises AttributeCycleError, naming one node on the cycle, if the
        HAS_ATTR subgraph is not acyclic.
        """
        n = len(self._nodes)
        indeg = [0] * n
        for src in self._out:
            for dst in self._out[src].get(HAS_ATTR, ()):
                indeg[dst] += 1
        queue = deque(r for r in range(n) if indeg[r] == 0)
        longest = [0] * n
        seen = 0
        best = 0
        while queue:
            r = queue.popleft()
            seen += 1
            for dst in self._out.get(r, {}).get(HAS_ATTR, ()):
                if longest[r] + 1 > longest[dst]:
                    longest[dst] = longest[r] + 1
                    best = max(best, longest[dst])
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    queue.append(dst)
        if seen < n:
            culprit = next(r for r in range(n) if indeg[r] > 0)
            raise AttributeCycleError(self._nodes[culprit].name)
        return best

    # -- internal -----------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenGraphError("graph is frozen; mutation is not allowed")

    def _check_ref(self, ref: NodeRef) -> None:
        if not isinstance(ref, int) or not 0 <= ref < len(self._nodes):
            raise UnknownNodeError(f"no node with ref {ref!r}")
