"""Policy matching over the frozen graph.

``matching_policies`` is the production path, and it runs the paper's
three-stage Cypher decision statement (``cypher.emit_cypher_decision_query``)
in memory.  It reads ``PolicyStore.policies()`` once per query: the
store's compiled ``PolicySnapshot``, which holds the policies, the
per-slot adjacencies the closures walk and the key index.

1. ``query_closures`` runs one bounded BFS per query primitive: the
   ``(x)-[:HAS_ATTR*0..depth]->(c)`` stage, with minimal hop counts.  Like
   the Cypher pattern, it only needs to reach the condition nodes ``c``
   that its own stage joins on: ``SUB_CON`` nodes for the subject,
   ``ACT_CON`` for the action and ``OBJ_CON`` for the object.  So slot
   ``t``'s BFS walks slot ``t``'s copy in the snapshot's ``adjacency``:
   the frozen graph with every node that cannot reach a condition node of
   slot ``t`` left out.  Each of those condition nodes is found at the
   same minimal hop count as in the full graph, within the same depth
   bound; nodes that lead to none are never visited.  On an unfrozen
   graph it raises ``NotFrozenError``.
2. ``PolicySnapshot.candidates`` looks up the closure nodes among the
   keys of the snapshot's condition index (one ``(sc)-[:SUB_CON]->(pol)``
   edge per policy, see ``policy``) and keeps each policy found there
   whose other plain nodes are all in their slots' closures: the rest of
   every stage's ``sat_cons = req_cons``.  A policy with no plain node at
   all is always a candidate.  The index holds the policies themselves,
   so the candidates come out as policies, in ``seq`` order.

Only the candidates reach ``match_single``, which checks the three slots
against the shared closures, decides the compound candidates and supplies
the path lengths: a slot survives iff each of its plain nodes is in the
closure and its compiled program, the conjunction of its compound
expressions, evaluates true over it.  The program runs in one loop over
its ops, so no code on the decision path recurses over an expression, and
a part that several expressions share is evaluated once.
Every front end that needs closures gets them from ``query_closures``;
slot ``t``'s closure is exact at slot ``t``'s condition nodes of the
store and says nothing about any other node.

The closures are a triple in ``_SLOTS`` order (subject, action, object),
the order of ``AccessQuery``'s fields and of every other per-slot value:
``Policy.nodes`` and ``compound``, the snapshot's ``keys`` and
``adjacency``, and ``PolicyMatch``'s lengths.  So the decision path pairs
a slot's values by position and never looks a slot up by its type.

``matching_policies_oracle`` is a deliberately independent check that
evaluates every required condition by exhaustive simple-path
enumeration over the full graph.  It exists to cross-validate the
production path and is O(paths); keep it to small graphs.  It reads
the expressions as given (``Policy.conditions``), never the programs, and
walks each tree recursively, once per path through a shared part, so keep
it to small trees too.

Both report, per match, the minimal path length from each query
primitive to the policy (closure hops plus the condition edge).

``AccessQuery`` and ``PolicyMatch`` are named tuples: immutable, hashed
and compared by their field values, and built without a Python-level
``__setattr__`` per field, since every decision makes one query and one
record per match.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import NotFrozenError
from .graph import Adjacency, Graph, HAS_ATTR, NodeRef
from .policy import AND, NOT, REF, And, CompiledSlot, ConditionExpr, Not, Or, Policy, PolicyStore
from .policy import Ref, ref_leaves


class AccessQuery(NamedTuple):
    """One request: the subject, action and object nodes."""

    sub: NodeRef
    act: NodeRef
    obj: NodeRef


class PolicyMatch(NamedTuple):
    """One matching policy with its path length per slot."""

    policy: Policy
    len_sub: int
    len_act: int
    len_obj: int

    @property
    def total_len(self) -> int:
        return self.len_sub + self.len_act + self.len_obj


# -- closure-based evaluation (production path) -----------------------

Closure = dict[NodeRef, int]
Closures = tuple[Closure, Closure, Closure]


def query_closures(store: PolicyStore, q: AccessQuery, depth: int) -> Closures:
    """Minimal hop counts from each query primitive to every condition node
    of its slot in ``store`` that it reaches within ``depth``, one dict per
    slot in ``_SLOTS`` order, like the query's own fields."""
    return _closures(store.graph, store.policies().adjacency, q, depth)


def _closures(
    graph: Graph, adjacency: tuple[Adjacency, ...], q: AccessQuery, depth: int
) -> Closures:
    sub, act, obj = adjacency
    closure = graph.attribute_closure
    return closure(q.sub, depth, sub), closure(q.act, depth, act), closure(q.obj, depth, obj)


def _slot_length(
    nodes: tuple[NodeRef, ...], compound: CompiledSlot, closure: Closure, depth: int
) -> Optional[int]:
    """Match one compiled condition slot against a precomputed closure.

    Returns the slot's contribution to the policy length, or None when the
    slot fails.  Each plain node must be in the closure and gives its hop.
    The compound expressions' program, when there is one, runs in one loop:
    each op's truth value goes on a list at its position, a ``REF`` op is
    true when its node is in the closure and then gives its hop, and the
    last op, the conjunction of the expressions, must be true.  The slot
    contributes 1 + the nearest hop, or depth + 1, one more than any real
    path can be, when no node is in the closure (its only satisfied
    evidence is negative).  The closure must be built at ``depth``, so no
    hop exceeds it and starting the nearest hop at ``depth`` covers both.
    """
    nearest = depth
    for n in nodes:
        h = closure.get(n)
        if h is None:
            return None
        if h < nearest:
            nearest = h
    if compound:
        values: list[bool] = []
        push, value = values.append, values.__getitem__
        for op, arg in compound[1]:
            if op == REF:
                push((h := closure.get(arg)) is not None)
                if h is not None and h < nearest:
                    nearest = h
            elif op == NOT:
                push(not values[arg])
            elif op == AND:
                push(all(map(value, arg)))
            else:
                push(any(map(value, arg)))
        if not values[-1]:
            return None
    return 1 + nearest


def match_single(
    policy: Policy, closures: Closures, depth: int
) -> Optional[PolicyMatch]:
    """Match one stored policy against the closures of one query.

    ``policy`` must have a non-empty slot of every type, which
    ``PolicyStore.create_policy`` guarantees.
    """
    nodes, compound = policy.nodes, policy.compound
    lengths = []
    # Three subscripts cost less here than a zip over the three tuples.
    for i in (0, 1, 2):
        length = _slot_length(nodes[i], compound[i], closures[i], depth)
        if length is None:
            return None
        lengths.append(length)
    return PolicyMatch(policy, *lengths)


def matching_policies(
    store: PolicyStore, q: AccessQuery, depth: Optional[int] = None
) -> list[PolicyMatch]:
    """All policies matching ``q``, ordered by insertion sequence.

    Only the store's candidates for the query's closures are walked.
    """
    graph = store.graph
    if not graph.frozen:
        raise NotFrozenError("freeze the graph before matching")
    if depth is None:
        depth = graph.attr_depth
    policies = store.policies()
    closures = _closures(graph, policies.adjacency, q, depth)
    return [
        m
        for p in policies.candidates(closures)
        if (m := match_single(p, closures, depth)) is not None
    ]


# -- path-enumeration oracle ------------------------------------------


def _oracle_min_hops(
    graph: Graph, x: NodeRef, c: NodeRef, depth: int
) -> Optional[int]:
    """Minimal length over all simple HAS_ATTR paths x -> c of length <= depth,
    found by exhaustive DFS enumeration (no closure reuse)."""
    best: Optional[int] = None

    def walk(node: NodeRef, hops: int, on_path: set[NodeRef]) -> None:
        nonlocal best
        if node == c:
            if best is None or hops < best:
                best = hops
        if hops == depth:
            return
        for m in graph.out_neighbors(node, HAS_ATTR):
            if m not in on_path:
                on_path.add(m)
                walk(m, hops + 1, on_path)
                on_path.remove(m)

    walk(x, 0, {x})
    return best


def _oracle_eval(graph: Graph, x: NodeRef, expr: ConditionExpr, depth: int) -> bool:
    if isinstance(expr, Ref):
        return _oracle_min_hops(graph, x, expr.node, depth) is not None
    if isinstance(expr, Not):
        return not _oracle_eval(graph, x, expr.inner, depth)
    if isinstance(expr, And):
        return all(_oracle_eval(graph, x, c, depth) for c in expr.children)
    if isinstance(expr, Or):
        return any(_oracle_eval(graph, x, c, depth) for c in expr.children)
    raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover


def match_single_oracle(
    graph: Graph, policy: Policy, q: AccessQuery, depth: int
) -> Optional[PolicyMatch]:
    if not policy.is_valid_shape():
        return None
    lengths = []
    # ``Policy.conditions`` holds the slots in ``_SLOTS`` order, the order of
    # the query's fields.
    for x, exprs in zip(q, policy.conditions.values()):
        for expr in exprs:
            if not _oracle_eval(graph, x, expr, depth):
                return None
        hops = [
            h
            for expr in exprs
            for leaf in ref_leaves(expr)
            if (h := _oracle_min_hops(graph, x, leaf.node, depth)) is not None
        ]
        lengths.append(1 + min(hops) if hops else depth + 1)
    return PolicyMatch(policy, *lengths)


def matching_policies_oracle(
    store: PolicyStore, q: AccessQuery, depth: Optional[int] = None
) -> list[PolicyMatch]:
    graph = store.graph
    if not graph.frozen:
        raise NotFrozenError("freeze the graph before matching")
    if depth is None:
        depth = graph.attr_depth
    # Iterating the store reads no compiled snapshot, so the check shares
    # nothing with the path it checks.
    return [m for p in store if (m := match_single_oracle(graph, p, q, depth)) is not None]
