"""Policy construction, validation, and DNF expansion.

A policy carries a Permit/Deny decision, an optional score, an insertion
sequence number, and one non-empty set of condition expressions per
condition type (subject / action / object).  The expressions in one slot
are conjunctive; disjunction lives only inside ``Or`` trees.

``PolicyStore.create_policy`` is the validity gate: it is the only code
that rejects a policy with a decision that is not a ``Decision`` member, a
score that is neither an ``int`` nor None, an empty slot, a condition that
does not name an attribute or primitive node, or a condition that nests
``Not``/``And``/``Or`` more than ``MAX_NESTING`` levels deep, so every
stored policy is well-formed.  Hashing, compiling and matching walk an
expression recursively, so the bound keeps each walk far below the
interpreter's recursion limit.  ``create_policy`` measures the depth
first, level by level, and checks the slots and leaves of the expressions
as given before anything hashes them, so an unhashable node is a dangling
condition.

A policy holds each slot once, compiled by ``compile_conditions``, the one
place that tells a plain ``Ref`` from a compound expression and the one
place that finds a compound expression's leaves: ``nodes`` has one tuple
per slot, in ``_SLOTS`` order, of the nodes its top-level ``Ref``s name,
and ``compound`` one tuple per slot of ``(expression, leaf nodes)`` pairs,
one per ``Not``/``And``/``Or`` expression, whose leaf nodes are the nodes
of its ``Ref`` leaves, those under ``Not`` included, each once.  No slot
holds a repeat, and a policy with no compound expression shares the one
``_NO_COMPOUND`` tuple.  ``create_policy`` makes each slot a tuple once
and compiles the tuples it checked, so a slot given as a one-shot
iterable is read once.  ``Policy.conditions`` rebuilds the ``{type:
frozenset}`` mapping for the readers that want it (the oracle); matching,
the snapshot build and ``explain`` read the compiled fields.

``PolicyStore.policies()`` compiles the stored policies into one
``PolicySnapshot``: a tuple of them in ``seq`` order that also carries the
policy side of the paper's decision statement as a key index.  In the
graph, each condition node has a ``SUB_CON``/``ACT_CON``/``OBJ_CON`` edge
to every policy it conditions, and each Cypher stage follows those edges
from the closure nodes to the policies and keeps a policy when
``sat_cons = req_cons``.  Here each policy with a plain node in a slot is
posted once, under one key: its ``(slot, node)`` least likely to be in a
query's closure, by ``Graph.path_counts`` (ties go to the earlier slot,
then the lower node).  A slot is a conjunction, so a policy can match
only if its key is in its slot's closure.  A query looks up only its
closure nodes among the keys (``PolicySnapshot.candidates``) and checks
each policy found there against the rest of its plain nodes, which
``refs`` holds per slot, by seq, as the policies' own ``nodes`` tuples:
that check is the rest of every stage's ``sat_cons = req_cons``.  For a
simple policy (no compound expression) it is the match.  For any other it
is a necessary condition, and ``matcher.match_single`` decides the rest.
The key is the access predicate of Fabret et al. (SIGMOD 2001); picking
the rarest one follows Whang et al. (VLDB 2009).  Only a policy with no
plain node at all has no key; its seq is kept on ``residual``.  The index
does not depend on the traversal depth, which bounds the closures alone.

A slot's condition nodes are its plain nodes and the leaf nodes of its
compound expressions, including the leaves under ``Not``, in every stored
policy.  Matching reads a slot's closure only at that slot's condition
nodes, so the snapshot's ``adjacency`` is a tuple of three copies of the
frozen graph's ``HAS_ATTR`` children, one per slot in ``_SLOTS`` order,
each trimmed to the nodes that can reach a condition node of its slot, all
built by one ``Graph.trimmed_adjacency`` call.  A snapshot holds only what
a query reads: ``refs``, ``keys``, ``residual`` and ``adjacency``.
``Ref``, ``Not``, ``And``, ``Or`` and ``Policy`` are slotted records, with
no per-instance dict.

``create_policy`` validates and compiles before it inserts, so a rejected
policy leaves no trace.  ``policies()`` builds the snapshot, which needs a
frozen graph, at its first call and again at the first call after an
insertion.  Each build reads the store's policies and the frozen graph
alone, so a rebuilt snapshot equals one built fresh from the same store.
Every front end creates all its policies before its first query, so it
builds one snapshot.  A snapshot is built to one side, under a lock, and
published by one assignment, so concurrent first queries build it once; it
never changes after that, and any number of threads may match against it.
Like the graph, a store is filled single-threaded: ``create_policy`` must
not run while another thread matches against the same store.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Optional, Sequence

from .errors import (
    ConditionTooDeepError,
    DanglingConditionRefError,
    DuplicatePolicyError,
    MissingConditionTypeError,
    NegationNotExpandableError,
    PolicyError,
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
    # dict semantics and avoids Enum's Python-level __hash__.  The load path
    # needs it: the parser, the builder, ``create_policy`` and
    # ``compile_conditions`` make about a dozen slot-keyed dict operations
    # per policy.  A query keys nothing by slot type.
    __hash__ = object.__hash__


# The slot order of every per-slot value: a policy's ``nodes`` and
# ``compound``, the snapshot's fields, a query, its closures and a match's
# lengths.  Iterating the enum class runs a Python-level generator, so the
# load path iterates this tuple instead.
_SLOTS = tuple(ConditionType)


class Decision(enum.Enum):
    PERMIT = "Permit"
    DENY = "Deny"


class ConditionExpr:
    """Base of the condition expression tree."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Ref(ConditionExpr):
    node: NodeRef


@dataclass(frozen=True, slots=True)
class Not(ConditionExpr):
    inner: ConditionExpr


@dataclass(frozen=True, slots=True)
class And(ConditionExpr):
    children: tuple[ConditionExpr, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("And requires at least two children")


@dataclass(frozen=True, slots=True)
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


Slots = tuple[tuple[NodeRef, ...], ...]
# One slot's compound expressions, each with its leaf nodes, each once.
CompoundSlot = tuple[tuple[ConditionExpr, tuple[NodeRef, ...]], ...]
CompoundSlots = tuple[CompoundSlot, ...]

# The compound field of every policy without a Not/And/Or expression.
_NO_COMPOUND: CompoundSlots = ((), (), ())


def compile_conditions(
    conditions: Mapping[ConditionType, Collection[ConditionExpr]],
) -> tuple[Slots, CompoundSlots]:
    """A conditions mapping as a policy's ``nodes`` and ``compound`` fields,
    as in ``Policy(name, decision, score, seq, *compile_conditions(c))``:
    per slot, the nodes of its top-level ``Ref``s and its other
    expressions, each once, in the order given, each expression paired
    with the nodes of its ``Ref`` leaves, each once.  Hashes every compound
    expression, so an unhashable one raises TypeError."""
    nodes, compound = [], []
    for t in _SLOTS:
        plain, other = {}, {}
        for e in conditions.get(t, ()):
            if isinstance(e, Ref):
                plain[e.node] = None
            else:
                other[e] = tuple(dict.fromkeys(leaf.node for leaf in ref_leaves(e)))
        nodes.append(tuple(plain))
        compound.append(tuple(other.items()))
    return tuple(nodes), tuple(compound) if any(compound) else _NO_COMPOUND


@dataclass(slots=True)
class Policy:
    name: str
    decision: Decision
    score: int
    seq: int
    nodes: Slots
    compound: CompoundSlots

    @property
    def conditions(self) -> dict[ConditionType, frozenset[ConditionExpr]]:
        """Each slot's expressions as one set, keyed by condition type."""
        return {
            t: frozenset(map(Ref, nodes)).union(e for e, _ in pairs)
            for t, nodes, pairs in zip(_SLOTS, self.nodes, self.compound)
        }

    def is_valid_shape(self) -> bool:
        return all(nodes or exprs for nodes, exprs in zip(self.nodes, self.compound))


class PolicySnapshot(tuple):
    """The stored policies in ``seq`` order, compiled over the frozen graph:
    the key index, each slot's plain nodes by seq and one trimmed adjacency
    per slot (see the module docstring).  Raises NotFrozenError on an
    unfrozen graph."""

    def __new__(cls, graph: Graph, policies: tuple[Policy, ...]) -> PolicySnapshot:
        self = super().__new__(cls, policies)
        counts = graph.path_counts()
        # Per slot, in _SLOTS order: seq -> that policy's own node tuple, and
        # every condition node of the slot.
        self.refs = tuple(zip(*(p.nodes for p in policies))) or ((), (), ())
        conditions = tuple(set(itertools.chain.from_iterable(slot)) for slot in self.refs)
        # Per slot: key node -> the seqs posted under it.
        keys: tuple[dict[NodeRef, list[int]], ...] = ({}, {}, {})
        residual: list[int] = []
        for p in policies:
            ranks = [(counts[n], i, n) for i, nodes in enumerate(p.nodes) for n in nodes]
            if ranks:
                _, i, key = min(ranks)
                keys[i].setdefault(key, []).append(p.seq)
            else:
                residual.append(p.seq)
            for slot_conditions, pairs in zip(conditions, p.compound):
                slot_conditions.update(n for _, leaves in pairs for n in leaves)
        self.keys, self.residual = keys, residual
        self.adjacency = graph.trimmed_adjacency(conditions)
        return self

    def candidates(self, closures: Sequence[Mapping[NodeRef, int]]) -> list[int]:
        """Seqs, ascending, of the policies that can match a query whose
        closures these are, one per slot in ``_SLOTS`` order: every policy
        with each top-level ``Ref`` in its slot's closure, and every policy
        without one.

        A simple candidate is a match; ``matcher.match_single`` still
        supplies its path lengths, and decides the other candidates.
        """
        # A keys-view intersection walks the smaller side, so tiny stores and
        # large closures both stay cheap.
        hits: list[int] = []
        for closure, keys in zip(closures, self.keys):
            for n in closure.keys() & keys.keys():
                hits += keys[n]
        sub_closure, act_closure, obj_closure = closures
        sub, act, obj = sub_closure.__contains__, act_closure.__contains__, obj_closure.__contains__
        sub_refs, act_refs, obj_refs = self.refs
        seqs = [
            s
            for s in hits
            if all(map(sub, sub_refs[s]))
            and all(map(act, act_refs[s]))
            and all(map(obj, obj_refs[s]))
        ]
        seqs += self.residual
        seqs.sort()
        return seqs


class PolicyStore:
    """Ordered store of valid policies built over a graph, compiled into one
    ``PolicySnapshot`` for matching (see the module docstring)."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._policies: dict[str, Policy] = {}
        self._snapshot: Optional[PolicySnapshot] = None
        self._lock = threading.Lock()

    def create_policy(
        self,
        name: str,
        decision: Decision,
        conditions: Mapping[ConditionType, Collection[ConditionExpr]],
        score: Optional[int] = None,
    ) -> Policy:
        if name in self._policies:
            raise DuplicatePolicyError(f"policy {name!r} already exists")
        if not isinstance(decision, Decision):
            raise PolicyError(f"policy {name!r} has decision {decision!r}, not a Decision")
        # A bool is an int, but no score.
        if score is not None and type(score) is not int:
            raise PolicyError(f"policy {name!r} has score {score!r}, not an int or None")
        # One read of each slot: a one-shot iterable passes the checks and is
        # compiled from the same tuple.
        slots = [tuple(conditions.get(t, ())) for t in _SLOTS]
        exprs = list(itertools.chain.from_iterable(slots))
        for expr in exprs:
            if not isinstance(expr, Ref) and _nests_too_deep(expr):
                raise ConditionTooDeepError(
                    f"policy {name!r} nests conditions deeper than {MAX_NESTING} levels"
                )
        missing = [t for t, exprs in zip(_SLOTS, slots) if not exprs]
        if missing:
            raise MissingConditionTypeError(name, missing)
        graph = self.graph
        dangling: set[str] = set()
        for leaf in itertools.chain.from_iterable(map(ref_leaves, exprs)):
            node = leaf.node
            # A bool is an int, and 1.0 == 1; neither names a node.
            if type(node) is not int or not 0 <= node < graph.node_count():
                dangling.add(f"node#{node!r}")
            elif graph.node(node).has_label(POLICY_LABEL):
                dangling.add(graph.node(node).name)
        if dangling:
            names = ", ".join(sorted(dangling))
            raise DanglingConditionRefError(
                f"policy {name!r} references non-condition nodes: {names}"
            )
        compiled = compile_conditions(dict(zip(_SLOTS, slots)))
        policy = Policy(name, decision, score or 0, len(self._policies), *compiled)
        self._policies[name] = policy
        return policy

    def get(self, name: str) -> Policy:
        try:
            return self._policies[name]
        except KeyError:
            raise UnknownPolicyError(f"no policy named {name!r}") from None

    def policies(self) -> PolicySnapshot:
        """Stored policies in ``seq`` order, so ``policies()[p.seq] is p``,
        compiled for matching.

        The snapshot is built at the first call and at the first one after
        an insertion, once however many threads call; every call in between
        returns the same object.  The store only appends and a rejected
        policy leaves no trace, so the count tells a stale snapshot.
        """
        while (snapshot := self._snapshot) is None or len(snapshot) != len(self._policies):
            with self._lock:
                if self._snapshot is snapshot:
                    self._snapshot = PolicySnapshot(self.graph, tuple(self._policies.values()))
        return snapshot

    def __iter__(self) -> Iterator[Policy]:
        """Stored policies in ``seq`` order, without compiling a snapshot."""
        return iter(self._policies.values())

    def __len__(self) -> int:
        return len(self._policies)


def _dnf_terms(expr: ConditionExpr) -> list[tuple[NodeRef, ...]]:
    if isinstance(expr, Ref):
        return [(expr.node,)]
    if isinstance(expr, Not):
        raise NegationNotExpandableError(
            "cannot expand a NOT condition; rewrite with an explicit Deny policy"
        )
    if isinstance(expr, Or):
        return [t for child in expr.children for t in _dnf_terms(child)]
    if isinstance(expr, And):
        terms: list[tuple[NodeRef, ...]] = [()]
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
    slots: list[list[tuple[NodeRef, ...]]] = []
    for nodes, pairs in zip(policy.nodes, policy.compound):
        terms = [nodes]
        for expr in sorted((e for e, _ in pairs), key=repr):
            terms = [a + b for a in terms for b in _dnf_terms(expr)]
        slots.append([tuple(dict.fromkeys(term)) for term in terms])
    name, decision, score, seq = policy.name, policy.decision, policy.score, policy.seq
    return [
        Policy(f"{name}#{i}", decision, score, seq, combo, _NO_COMPOUND)
        for i, combo in enumerate(itertools.product(*slots))
    ]
