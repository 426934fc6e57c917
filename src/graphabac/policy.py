"""Policy construction, validation, and DNF expansion.

A policy carries a Permit/Deny decision, an optional score, an insertion
sequence number, and one non-empty set of condition expressions per
condition type (subject / action / object).  The expressions in one slot
are conjunctive; disjunction lives only inside ``Or`` trees.

``PolicyStore.create_policy`` is the validity gate: it is the only code
that rejects a policy with an empty slot, a condition that does not name
an attribute or primitive node, or a condition that nests ``Not``/``And``/
``Or`` more than ``MAX_NESTING`` levels deep, so every stored policy is
well-formed.  Hashing, ``ref_leaves`` and matching walk an expression
recursively, so the bound keeps each walk far below the interpreter's
recursion limit.  ``create_policy`` measures the depth first, level by
level, before anything hashes or walks the expression.

The store also keeps the policy side of the paper's decision statement as
a key index, which ``PolicyStore.candidates`` reads.  In the graph, each
condition node has a ``SUB_CON``/``ACT_CON``/``OBJ_CON`` edge to every
policy it conditions, and each Cypher stage follows those edges from the
closure nodes to the policies and keeps a policy when
``sat_cons = req_cons``.  Here each policy with a plain ``Ref`` at the top
level of a slot is posted once, under one key: its top-level
``(slot, node)`` least likely to be in a query's closure, by
``Graph.path_counts`` (ties go to the earlier slot, then the lower ref).
A slot is a conjunction, so a policy can match only if its key is in its
slot's closure.  A query looks up only its closure nodes among the keys
and checks each policy found there against the rest of its top-level
refs, which ``_refs`` holds as one node tuple per slot: that check is the
rest of every stage's ``sat_cons = req_cons``.  For a simple policy
(nothing but refs) it is the match.  For a policy with
``Not``/``And``/``Or`` expressions it is a necessary condition, and
``matcher.match_single`` decides the rest.  The key is the access
predicate of Fabret et al. (SIGMOD 2001); picking the rarest one follows
Whang et al. (VLDB 2009).  Only a policy with no top-level ref at all has
no key; its seq is kept on ``_residual``.

``create_policy`` records a policy's refs only after every check has
passed, so a rejected policy leaves no trace.  Path counts need a frozen
graph and ``create_policy`` may run before ``freeze()``, so it only queues
the seq, and the first query after it posts the queued seqs.  The index
does not depend on the traversal depth, which bounds the closures alone.

``create_policy`` also records the store's condition nodes: every ``Ref``
leaf of every stored policy, including the leaves under ``Not``.  Matching
reads the closures only at those nodes, so ``condition_adjacency`` gives
the closures a copy of the frozen graph's ``HAS_ATTR`` children trimmed to
the nodes that can reach one (``Graph.trimmed_adjacency``).  The frozen
graph never changes, so the copy is rebuilt only on the first query after
a new condition node arrives.  The copy and the queued keys are settled in
one step under a lock, so concurrent first queries do it once; every later
query reads the finished copy and index without the lock.  Like the graph,
a store is filled single-threaded: ``create_policy`` must not run while
another thread matches against the same store.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Optional

from .errors import (
    ConditionTooDeepError,
    DanglingConditionRefError,
    DuplicatePolicyError,
    MissingConditionTypeError,
    NegationNotExpandableError,
    UnknownPolicyError,
)
from .graph import Graph, NodeRef, POLICY_LABEL

# The deepest nesting of Not/And/Or one condition may have: a Ref alone is
# 0 levels, Not(Ref) is 1.  The .abac parser counts `not` and `(` the same.
MAX_NESTING = 100


class ConditionType(enum.Enum):
    SUB_CON = "subject"
    ACT_CON = "action"
    OBJ_CON = "object"

    # Members are singletons compared by identity, so identity hashing keeps
    # dict semantics and avoids Enum's Python-level __hash__ on every
    # slot-keyed lookup.
    __hash__ = object.__hash__


# Iterating the enum class runs a Python-level generator; the hot paths
# iterate this tuple instead.
_SLOTS = tuple(ConditionType)


class Decision(enum.Enum):
    PERMIT = "Permit"
    DENY = "Deny"


class ConditionExpr:
    """Base of the condition expression tree."""

    __slots__ = ()


@dataclass(frozen=True)
class Ref(ConditionExpr):
    node: NodeRef


@dataclass(frozen=True)
class Not(ConditionExpr):
    inner: ConditionExpr


@dataclass(frozen=True)
class And(ConditionExpr):
    children: tuple[ConditionExpr, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("And requires at least two children")


@dataclass(frozen=True)
class Or(ConditionExpr):
    children: tuple[ConditionExpr, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("Or requires at least two children")


def ref_leaves(expr: ConditionExpr) -> Iterator[Ref]:
    """All Ref leaves of an expression tree, including those under Not."""
    if isinstance(expr, Ref):
        yield expr
    elif isinstance(expr, Not):
        yield from ref_leaves(expr.inner)
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from ref_leaves(child)
    else:  # pragma: no cover - sealed hierarchy
        raise TypeError(f"unknown expression node {expr!r}")


def _nests_too_deep(expr: ConditionExpr) -> bool:
    """Whether some leaf of ``expr`` sits under more than MAX_NESTING
    levels.  Walks level by level, without recursion or hashing, and visits
    a subexpression shared by several parents once per level."""
    level: Collection[ConditionExpr] = (expr,)
    for _ in range(MAX_NESTING + 1):
        below: dict[int, ConditionExpr] = {}
        for e in level:
            if isinstance(e, Not):
                below[id(e.inner)] = e.inner
            elif isinstance(e, (And, Or)):
                for child in e.children:
                    below[id(child)] = child
        if not below:
            return False
        level = below.values()
    return True


@dataclass
class Policy:
    name: str
    decision: Decision
    score: int
    seq: int
    conditions: Mapping[ConditionType, frozenset[ConditionExpr]]

    def is_valid_shape(self) -> bool:
        return all(self.conditions.get(t) for t in ConditionType)


class PolicyStore:
    """Ordered store of valid policies built over a graph, indexed by one
    key condition node per policy (see the module docstring)."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._policies: dict[str, Policy] = {}
        self._ordered: Optional[tuple[Policy, ...]] = ()
        # Per slot, in _SLOTS order: seq -> the slot's top-level Ref nodes.
        self._refs: tuple[list[tuple[NodeRef, ...]], ...] = tuple([] for _ in _SLOTS)
        # Per slot, in _SLOTS order: key node -> seqs posted under it.
        self._keys: tuple[dict[NodeRef, list[int]], ...] = tuple({} for _ in _SLOTS)
        # Seqs with a top-level ref, not posted yet.
        self._pending: list[int] = []
        self._residual: list[int] = []
        self._path_counts: Optional[list[int]] = None
        self._conditions: set[NodeRef] = set()
        # The graph trimmed to self._conditions, or None after a new one.
        self._trimmed: Optional[tuple[tuple[NodeRef, ...], ...]] = None
        self._settle_lock = threading.Lock()

    def create_policy(
        self,
        name: str,
        decision: Decision,
        conditions: Mapping[ConditionType, Collection[ConditionExpr]],
        score: Optional[int] = None,
    ) -> Policy:
        if name in self._policies:
            raise DuplicatePolicyError(f"policy {name!r} already exists")
        for t in _SLOTS:
            for expr in conditions.get(t, ()):
                if not isinstance(expr, Ref) and _nests_too_deep(expr):
                    raise ConditionTooDeepError(
                        f"policy {name!r} nests conditions deeper than {MAX_NESTING} levels"
                    )
        frozen = {t: frozenset(conditions.get(t, ())) for t in ConditionType}
        seq = len(self._policies)
        policy = Policy(name, decision, score or 0, seq, frozen)
        missing = [t for t in ConditionType if not frozen[t]]
        if missing:
            raise MissingConditionTypeError(name, missing)
        graph = self.graph
        dangling: set[str] = set()
        leaves: set[NodeRef] = set()
        for exprs in frozen.values():
            for expr in exprs:
                for leaf in ref_leaves(expr):
                    leaves.add(leaf.node)
                    if not 0 <= leaf.node < graph.node_count():
                        dangling.add(f"node#{leaf.node}")
                    elif graph.node(leaf.node).has_label(POLICY_LABEL):
                        dangling.add(graph.node(leaf.node).name)
        if dangling:
            names = ", ".join(sorted(dangling))
            raise DanglingConditionRefError(
                f"policy {name!r} references non-condition nodes: {names}"
            )
        self._policies[name] = policy
        self._ordered = None
        if not leaves <= self._conditions:
            self._conditions |= leaves
            self._trimmed = None
        has_ref = False
        for t, refs in zip(_SLOTS, self._refs):
            # A slot without a plain Ref gets the shared empty tuple.
            nodes = tuple(e.node for e in frozen[t] if isinstance(e, Ref))
            refs.append(nodes)
            has_ref = has_ref or bool(nodes)
        (self._pending if has_ref else self._residual).append(seq)
        return policy

    def get(self, name: str) -> Policy:
        try:
            return self._policies[name]
        except KeyError:
            raise UnknownPolicyError(f"no policy named {name!r}") from None

    def policies(self) -> tuple[Policy, ...]:
        """Stored policies in ``seq`` order, so ``policies()[p.seq] is p``.

        The tuple is cached and rebuilt only after an insertion.
        """
        if self._ordered is None:
            self._ordered = tuple(self._policies.values())
        return self._ordered

    def condition_adjacency(self) -> tuple[tuple[NodeRef, ...], ...]:
        """The frozen graph's HAS_ATTR children trimmed to the nodes that can
        reach a condition node of this store; built on first use and kept
        until a new condition node arrives.  Raises NotFrozenError on an
        unfrozen graph."""
        trimmed = self._trimmed
        if trimmed is None:
            trimmed = self._settle()
        return trimmed

    def _settle(self) -> tuple[tuple[NodeRef, ...], ...]:
        """Post the queued policies under their keys and build the trimmed
        copy if it is missing, once, however many threads ask at a time.
        ``_pending`` is emptied, and ``_trimmed`` set, only once that part
        is complete, so a reader that finds nothing queued, or a copy in
        place, can use it without the lock."""
        with self._settle_lock:
            if self._pending:
                counts = self._path_counts
                if counts is None:
                    counts = self._path_counts = self.graph.path_counts()
                slots = tuple(enumerate(self._refs))
                for s in self._pending:
                    best = None
                    for i, refs in slots:
                        for n in refs[s]:
                            rank = (counts[n], i, n)
                            if best is None or rank < best:
                                best = rank
                    _, i, key = best
                    self._keys[i].setdefault(key, []).append(s)
                self._pending = []
            if self._trimmed is None:
                self._trimmed = self.graph.trimmed_adjacency(self._conditions)
            return self._trimmed

    def candidates(
        self, closures: Mapping[ConditionType, Mapping[NodeRef, int]]
    ) -> list[int]:
        """Seqs, ascending, of the policies that can match a query whose
        closures these are: every policy with each top-level ``Ref`` in its
        slot's closure, and every policy without one.

        A simple candidate is a match; ``matcher.match_single`` still
        supplies its path lengths, and decides the other candidates.
        """
        if self._pending:
            self._settle()
        # A keys-view intersection walks the smaller side, so tiny stores and
        # large closures both stay cheap.
        hits: list[int] = []
        for t, keys in zip(_SLOTS, self._keys):
            for n in closures[t].keys() & keys.keys():
                hits += keys[n]
        sub, act, obj = (closures[t].__contains__ for t in _SLOTS)
        sub_refs, act_refs, obj_refs = self._refs
        seqs = [
            s
            for s in hits
            if all(map(sub, sub_refs[s]))
            and all(map(act, act_refs[s]))
            and all(map(obj, obj_refs[s]))
        ]
        seqs += self._residual
        seqs.sort()
        return seqs

    def __len__(self) -> int:
        return len(self._policies)


def _expr_key(expr: ConditionExpr) -> str:
    return repr(expr)


def _dnf_terms(expr: ConditionExpr) -> list[tuple[Ref, ...]]:
    if isinstance(expr, Ref):
        return [(expr,)]
    if isinstance(expr, Not):
        raise NegationNotExpandableError(
            "cannot expand a NOT condition; rewrite with an explicit Deny policy"
        )
    if isinstance(expr, Or):
        return [t for child in expr.children for t in _dnf_terms(child)]
    if isinstance(expr, And):
        terms: list[tuple[Ref, ...]] = [()]
        for child in expr.children:
            terms = [a + b for a in terms for b in _dnf_terms(child)]
        return terms
    raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover


def dnf_expand(policy: Policy) -> list[Policy]:
    """Rewrite a Not-free compound policy into simple conjunctive policies.

    Each output covers one combination of DNF terms across the three slots;
    output count is the product of per-slot term counts.  Names get a
    ``#index`` suffix; decision, score, and seq are copied.
    """
    slots: list[list[frozenset[Ref]]] = []
    for t in ConditionType:
        terms: list[tuple[Ref, ...]] = [()]
        for expr in sorted(policy.conditions.get(t, ()), key=_expr_key):
            terms = [a + b for a in terms for b in _dnf_terms(expr)]
        slots.append([frozenset(term) for term in terms])
    types = tuple(ConditionType)
    return [
        Policy(
            f"{policy.name}#{i}",
            policy.decision,
            policy.score,
            policy.seq,
            dict(zip(types, combo)),
        )
        for i, combo in enumerate(itertools.product(*slots))
    ]
