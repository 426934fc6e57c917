"""Policy construction, validation, and DNF expansion.

A policy carries a Permit/Deny decision, an optional score, an insertion
sequence number, and one non-empty set of condition expressions per
condition type (subject / action / object).  The expressions in one slot
are conjunctive; disjunction lives only inside ``Or`` trees.

``PolicyStore.create_policy`` is the public validity gate: it rejects a
policy with a name that is not a ``str``, a decision that
is not a ``Decision`` member, a score that is neither an ``int`` nor None,
conditions that are not a mapping of collections, a
condition part that is not a ``Ref``, a ``Not``, or an
``And``/``Or`` of a tuple, or a condition that nests ``Not``/``And``/``Or``
more than ``MAX_NESTING`` levels deep.  It ends in ``PolicyStore._add``,
the one insertion, which rejects a name already stored, an empty slot and
a condition that does not name an attribute or primitive node.  The model
loader calls ``_add`` straight with the node tuples of a policy whose
conditions are all names it found in the graph, the only fields the other
checks could fault, so every stored policy is well-formed.
The oracle and ``Policy.conditions`` walk an expression recursively, so
the bound keeps each of those walks far below the interpreter's recursion
limit.  ``create_policy`` checks each part's type, the depth and the leaf
nodes before anything hashes a node, so an unhashable node is a dangling
condition.

A policy holds each slot once, compiled by ``_compile_slot``, the one
place that tells a plain ``Ref`` from a compound expression: ``nodes`` has
one tuple per slot, in ``_SLOTS`` order, of the nodes its top-level
``Ref``s name, and ``compound`` one entry per slot, ``()`` when the slot
has no ``Not``/``And``/``Or`` expression, else ``(expressions,
program)``.  The expressions are the slot's distinct compound expressions
as given, for the readers that want the trees: the oracle and
``Policy.conditions``.  The program is the slot's one compiled form: a
tuple of ``(op, arg)`` in post order, ``(REF, node)``, ``(NOT, i)``,
``(AND, (i, ...))`` or ``(OR, (i, ...))``, where each ``i`` is the
position of an earlier op, and whose last op is the ``AND`` of the slot's
expressions.  Each distinct subexpression is one op, keyed by its
own tuple, so equal expressions made of distinct objects compile to the
same op and count as one expression, and the ``REF`` ops' nodes are the
leaves of the expressions, those under ``Not`` included, each once.
``_compile_slot`` makes one walk per expression, without recursion, that
checks the part types and the depth and builds the program; a part that
several parents share is compiled once, found by ``id`` (hash-consing,
Filliâtre and Conchon, ML 2006), and walked again only when met nearer the
root, so a condition whose paths double at each level costs time linear in
its objects.  Matching and ``dnf_expand`` run the program in one loop,
and the snapshot build and ``explain`` read the ``REF`` ops' nodes
(``leaf_nodes``); none of them walks an expression.  A top-level ``Ref``
skips the compiler.  No slot holds a repeat, and a stored policy with no
compound expression shares the one ``_NO_COMPOUND`` tuple.
``create_policy`` makes each slot a tuple once and compiles the tuples it
checked, so a slot given as a one-shot iterable is read once.
``Policy.conditions`` rebuilds the ``{type: frozenset}`` mapping, for the
oracle and other readers of the trees.

``PolicyStore.policies()`` compiles the stored policies into one
``PolicySnapshot``: a tuple of them in ``seq`` order that also carries the
policy side of the paper's decision statement as a key index.  In the
graph, each condition node has a ``SUB_CON``/``ACT_CON``/``OBJ_CON`` edge
to every policy it conditions, and each Cypher stage follows those edges
from the closure nodes to the policies and keeps a policy when
``sat_cons = req_cons``.  Here the index, like those edges, leads to the
policies themselves: each policy with a plain node in a slot is posted
once, under one key, its ``(slot, node)`` least likely to be in a query's
closure, by ``Graph.path_counts`` (ties go to the earlier slot, then the
lower node).  A slot is a conjunction, so a policy can match only if its
key is in its slot's closure.  A query looks up only its closure nodes
among the keys (``PolicySnapshot.candidates``) and checks each policy
found there against the rest of its plain nodes, read from its own
``nodes``: that check is the rest of every stage's ``sat_cons =
req_cons``.  For a simple policy (no compound expression) it is the
match.  For any other it is a necessary condition, and
``matcher.match_single`` decides the rest.  The key is the access
predicate of Fabret et al. (SIGMOD 2001); picking the rarest one follows
Whang et al. (VLDB 2009).  Only a policy with no plain node at all has no
key; it is kept on ``residual``.  The index does not depend on the
traversal depth, which bounds the closures alone.

A slot's condition nodes are its plain nodes and the leaf nodes of its
compound expressions, including the leaves under ``Not``, in every stored
policy.  Matching reads a slot's closure only at that slot's condition
nodes, so the snapshot's ``adjacency`` is a tuple of three copies of the
frozen graph's ``HAS_ATTR`` children, one per slot in ``_SLOTS`` order,
each trimmed to the nodes that can reach a condition node of its slot, all
built by one ``Graph.trimmed_adjacency`` call.  A snapshot holds only what
a query reads: ``keys``, ``residual`` and ``adjacency``, the frozen
``graph`` and its ``attr_depth``, the default traversal depth, besides the
policies themselves.  It runs each stage a query needs:
``PolicySnapshot.closures`` makes one bounded BFS per slot over that
slot's copy, through ``graph.attribute_closure``, and ``candidates`` reads
the index; ``matcher.matches`` checks the candidates.
``Ref``, ``Not``, ``And``, ``Or`` and ``Policy`` are slotted records, with
no per-instance dict (see ``records.py``): the condition expressions are
frozen and hash by their fields, and a ``Policy`` compares by its fields
but does not hash.  ``Not``, ``And`` and ``Or`` keep their hash after its
first use, in a slot that is not a field, so hashing a tree hashes each
distinct part once.

``create_policy`` and ``_add`` validate and compile before they insert,
so a rejected policy leaves no trace.  ``policies()`` builds the snapshot,
which needs a frozen graph, at its first call and again at the first call
after an insertion.  Each build reads the store's policies and the frozen
graph alone, so a rebuilt snapshot equals one built fresh from the same
store.
Every front end creates all its policies before its first query, so it
builds one snapshot.  A snapshot is built to one side, under a lock, and
published by one assignment, so concurrent first queries build it once; it
never changes after that, and any number of threads may match against it.
Like the graph, a store is filled single-threaded: no policy may go in
while another thread matches against the same store.
"""

from __future__ import annotations

import enum
import itertools
import threading
from operator import attrgetter
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
from .records import FrozenRecord, Record, _set

# The deepest nesting of Not/And/Or one condition may have: a Ref alone is
# 0 levels, Not(Ref) is 1.  The .abac parser counts `not` and `(` the same.
MAX_NESTING = 100


class ConditionType(enum.Enum):
    SUB_CON = "subject"
    ACT_CON = "action"
    OBJ_CON = "object"

    # Members are singletons compared by identity, so identity hashing keeps
    # dict semantics and avoids Enum's Python-level __hash__.  The load path
    # needs it: the parser, the builder and ``create_policy`` make about a
    # dozen slot-keyed dict operations per policy.  A query keys nothing by
    # slot type.
    __hash__ = object.__hash__


# The slot order of every per-slot value: a policy's ``nodes`` and
# ``compound``, the snapshot's fields, a query, its closures and a match's
# lengths.  Iterating the enum class runs a Python-level generator, so the
# load path iterates this tuple instead.
_SLOTS = tuple(ConditionType)

# The sort key of policies in insertion order.
_BY_SEQ = attrgetter("seq")


class Decision(enum.Enum):
    PERMIT = "Permit"
    DENY = "Deny"


class ConditionExpr(FrozenRecord):
    """Base of the condition expression tree."""

    __slots__ = ()


class Ref(ConditionExpr):
    __slots__ = ("node",)

    def __init__(self, node: NodeRef) -> None:
        _set(self, "node", node)


class _Compound(ConditionExpr):
    """Base of ``Not``, ``And`` and ``Or``.  Keeps its hash, that of its
    field tuple, after the first use, in a slot that is not one of its
    fields, so hashing a tree hashes each distinct part once."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._values()))
            return self._hash


class Not(_Compound):
    __slots__ = ("inner",)

    def __init__(self, inner: ConditionExpr) -> None:
        _set(self, "inner", inner)


class And(_Compound):
    __slots__ = ("children",)

    def __init__(self, children: tuple[ConditionExpr, ...]) -> None:
        _set(self, "children", children)
        if len(children) < 2:
            raise ValueError("And requires at least two children")


class Or(_Compound):
    __slots__ = ("children",)

    def __init__(self, children: tuple[ConditionExpr, ...]) -> None:
        _set(self, "children", children)
        if len(children) < 2:
            raise ValueError("Or requires at least two children")


def ref_leaves(expr: ConditionExpr) -> Iterator[Ref]:
    """All Ref leaves of an expression tree, including those under Not.  For
    the oracle: it walks every path, so a shared subtree once per path."""
    if isinstance(expr, Ref):
        yield expr
    else:
        for child in _children(expr):
            yield from ref_leaves(child)


def _children(part: Not | And | Or) -> tuple[ConditionExpr, ...]:
    return (part.inner,) if isinstance(part, Not) else part.children


# The opcodes of a program.  Its ops come in post order: (REF, node),
# (NOT, i), (AND, (i, ...)) or (OR, (i, ...)), each i the position of an
# earlier op.
REF, NOT, AND, OR = range(4)

Slots = tuple[tuple[NodeRef, ...], ...]
# One slot's entry in a policy's compound field: () or its distinct
# compound expressions, as given, and their program of (op, arg) ops.
CompiledSlot = tuple[()] | tuple[tuple[ConditionExpr, ...], tuple[tuple[int, object], ...]]

# The compound field of every stored policy without a Not/And/Or expression.
_NO_COMPOUND: tuple[CompiledSlot, ...] = ((), (), ())


def _compile_slot(name: str, exprs: tuple) -> tuple[tuple[NodeRef, ...], CompiledSlot]:
    """One slot's top-level ``Ref`` nodes, each once, and ``()`` or its
    distinct other expressions with their program.

    Walks each expression without recursion and compiles a part that
    several parents share once, found by ``id``; a part met again nearer
    the root than before is walked again from there, so every part within
    MAX_NESTING levels on some path is checked.  Raises a PolicyError
    naming policy ``name`` for such a part that is not a ``Ref``, a
    ``Not``, or an ``And``/``Or`` of a tuple, and then ConditionTooDeepError
    if a path is longer than MAX_NESTING: a part's height is taken over all
    its children, so the deepest path counts wherever a shared part was
    first met.  Hashes no expression, and no node that is not an ``int``:
    such a node is keyed by the ``id`` of its ``Ref``, for ``create_policy``
    to reject."""
    plain: dict[object, object] = {}  # node, or id(Ref) -> node
    index: dict[object, tuple[int, tuple]] = {}  # op, or id(Ref) -> (position, op)
    # id(part) -> (position, height, the least depth it was walked from)
    done: dict[int, tuple[int, int, int]] = {}
    roots: dict[int, object] = {}  # root position -> the first expression compiled to it
    for expr in exprs:
        if isinstance(expr, Ref):
            plain.setdefault(expr.node if type(expr.node) is int else id(expr), expr.node)
            continue
        stack = [(expr, 0, False)]
        while stack:
            part, depth, ready = stack.pop()
            # A part not yet walked counts as walked from just below the
            # bound.  So a part below the bound is left out, and its parent
            # counts it as a leaf there, so the expression is too deep; and
            # so is a part already walked from as near the root.
            if not ready and done.get(id(part), (0, 0, MAX_NESTING + 1))[2] <= depth:
                continue
            if isinstance(part, Ref):
                op, height = (REF, part.node), 0
            elif ready:
                kids = [done.get(id(c), (-1, 0, 0)) for c in _children(part)]
                height = 1 + max(h for _, h, _ in kids)
                code = NOT if isinstance(part, Not) else AND if isinstance(part, And) else OR
                op = (code, kids[0][0] if code == NOT else tuple(i for i, _, _ in kids))
            elif isinstance(part, (Not, And, Or)) and type(_children(part)) is tuple:
                stack.append((part, depth, True))
                stack.extend((c, depth + 1, False) for c in reversed(_children(part)))
                continue
            else:
                raise PolicyError(
                    f"policy {name!r} has a condition part of type {type(part).__name__}, "
                    "not a Ref, a Not, or an And or Or of a tuple"
                )
            key = op if op[0] != REF or type(op[1]) is int else id(part)
            done[id(part)] = (index.setdefault(key, (len(index), op))[0], height, depth)
        position, height, _ = done[id(expr)]
        if height > MAX_NESTING:
            raise ConditionTooDeepError(
                f"policy {name!r} nests conditions deeper than {MAX_NESTING} levels"
            )
        roots.setdefault(position, expr)
    if not roots:
        return tuple(plain.values()), ()
    program = (*(op for _, op in index.values()), (AND, tuple(roots)))
    return tuple(plain.values()), (tuple(roots.values()), program)


def compile_conditions(
    conditions: Mapping[ConditionType, Collection[ConditionExpr]],
) -> tuple[Slots, tuple[CompiledSlot, ...]]:
    """A conditions mapping as a policy's ``nodes`` and ``compound`` fields,
    as in ``Policy(name, decision, score, seq, *compile_conditions(c))``,
    each slot compiled by ``_compile_slot`` and raising as it does."""
    return tuple(zip(*(_compile_slot("?", tuple(conditions.get(t, ()))) for t in _SLOTS)))


def leaf_nodes(compiled: CompiledSlot) -> list[NodeRef]:
    """The nodes of a compiled compound slot's ``REF`` ops: the leaves of its
    expressions, those under ``Not`` included, each once."""
    return [arg for op, arg in compiled[1] if op == REF] if compiled else []


class Policy(Record):
    __slots__ = ("name", "decision", "score", "seq", "nodes", "compound")

    def __init__(
        self, name: str, decision: Decision, score: int, seq: int, nodes: Slots, compound: tuple
    ) -> None:
        self.name, self.decision, self.score, self.seq = name, decision, score, seq
        self.nodes, self.compound = nodes, compound

    @property
    def conditions(self) -> dict[ConditionType, frozenset[ConditionExpr]]:
        """Each slot's expressions as one set, keyed by condition type, for
        the oracle and other readers of the trees, not for the decision
        path."""
        return {
            t: frozenset(map(Ref, nodes)).union(compiled[0] if compiled else ())
            for t, nodes, compiled in zip(_SLOTS, self.nodes, self.compound)
        }

    def is_valid_shape(self) -> bool:
        return all(nodes or exprs for nodes, exprs in zip(self.nodes, self.compound))


# One slot's closure: minimal hop counts from a query primitive.
Closure = dict[NodeRef, int]
Closures = tuple[Closure, Closure, Closure]


class PolicySnapshot(tuple):
    """The stored policies in ``seq`` order, compiled over the frozen graph:
    the graph and its ``attr_depth``, the key index of the policies
    themselves and one trimmed adjacency per slot (see the module
    docstring).  Raises NotFrozenError on an unfrozen graph."""

    def __new__(cls, graph: Graph, policies: tuple[Policy, ...]) -> PolicySnapshot:
        self = super().__new__(cls, policies)
        counts = graph.path_counts()
        self.graph, self.attr_depth = graph, graph.attr_depth
        # Per slot, in _SLOTS order: every condition node of the slot, with
        # repeats, and key node -> the policies posted under it, in seq
        # order.
        conditions: tuple[list[NodeRef], ...] = ([], [], [])
        keys: tuple[dict[NodeRef, list[Policy]], ...] = ({}, {}, {})
        residual: list[Policy] = []
        for p in policies:
            ranks = [(counts[n], i, n) for i, nodes in enumerate(p.nodes) for n in nodes]
            if ranks:
                _, i, key = min(ranks)
                keys[i].setdefault(key, []).append(p)
            else:
                residual.append(p)
            for slot_conditions, nodes, compiled in zip(conditions, p.nodes, p.compound):
                slot_conditions += nodes
                if compiled:
                    slot_conditions += leaf_nodes(compiled)
        self.keys, self.residual = keys, residual
        # Freed before the trimming adds its own scratch.
        del counts
        self.adjacency = graph.trimmed_adjacency(conditions)
        return self

    def closures(self, q: Sequence[NodeRef], depth: int) -> Closures:
        """Minimal hop counts from each node of the query ``q`` (subject,
        action, object) to every condition node of its slot that it reaches
        within ``depth``: one bounded BFS per slot over the slot's trimmed
        adjacency, one dict per slot in ``_SLOTS`` order."""
        sub, act, obj = self.adjacency
        # Looked up on each call, so a wrapper set on ``Graph`` sees every
        # closure.
        closure = self.graph.attribute_closure
        return closure(q[0], depth, sub), closure(q[1], depth, act), closure(q[2], depth, obj)

    def candidates(self, closures: Sequence[Mapping[NodeRef, int]]) -> list[Policy]:
        """The policies, in ``seq`` order, that can match a query whose
        closures these are, one per slot in ``_SLOTS`` order: every policy
        with each top-level ``Ref`` in its slot's closure, and every policy
        without one.

        A simple candidate is a match; ``matcher.match_single`` still
        supplies its path lengths, and decides the other candidates.  The
        list may be the snapshot's own, which callers must not change.
        """
        # A keys-view intersection walks the smaller side, so tiny stores and
        # large closures both stay cheap; a slot with no keys is skipped.
        hits: list[Policy] = []
        for closure, keys in zip(closures, self.keys):
            if keys:
                for n in closure.keys() & keys.keys():
                    hits += keys[n]
        if not hits:
            return self.residual
        sub_closure, act_closure, obj_closure = closures
        sub, act, obj = sub_closure.__contains__, act_closure.__contains__, obj_closure.__contains__
        found = [
            p
            for p in hits
            if all(map(sub, (nodes := p.nodes)[0]))
            and all(map(act, nodes[1]))
            and all(map(obj, nodes[2]))
        ]
        found += self.residual
        if len(found) > 1:
            found.sort(key=_BY_SEQ)
        return found


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
        if not isinstance(name, str):
            raise PolicyError(f"policy name {name!r} is not a str")
        if not isinstance(decision, Decision):
            raise PolicyError(f"policy {name!r} has decision {decision!r}, not a Decision")
        # A bool is an int, but no score.
        if score is not None and type(score) is not int:
            raise PolicyError(f"policy {name!r} has score {score!r}, not an int or None")
        # One read of each slot: a one-shot iterable passes the checks and is
        # compiled from the same tuple.
        try:
            slots = [tuple(conditions.get(t, ())) for t in _SLOTS]
        except (AttributeError, TypeError):
            raise PolicyError(
                f"policy {name!r} has conditions that are not a mapping of collections"
            ) from None
        nodes, compound = zip(*(_compile_slot(name, exprs) for exprs in slots))
        return self._add(name, decision, score, nodes, compound if any(compound) else _NO_COMPOUND)

    def _add(
        self, name: str, decision: Decision, score: Optional[int], nodes: Slots, compound: tuple
    ) -> Policy:
        """Store a policy with these fields, ``nodes`` and ``compound`` as
        ``_compile_slot`` makes them and ``compound`` ``_NO_COMPOUND`` when
        no slot has a compound expression: the one way a policy goes in.
        ``create_policy`` ends here, and the model loader comes here
        straight with the node tuples of a policy whose conditions are all
        names it found in the graph.
        Raises DuplicatePolicyError for a name already stored,
        MissingConditionTypeError for an empty slot, and
        DanglingConditionRefError for a condition node that is not a node
        of the graph or has the Policy label; a rejected policy leaves no
        trace."""
        if name in self._policies:
            raise DuplicatePolicyError(f"policy {name!r} already exists")
        if not all(nodes):
            # A slot without plain nodes may still have a compound expression.
            missing = [
                t for t, plain, compiled in zip(_SLOTS, nodes, compound) if not (plain or compiled)
            ]
            if missing:
                raise MissingConditionTypeError(name, missing)
        table = self.graph.node_table()
        count = len(table)
        # The plain nodes, then the leaves of the compound expressions.
        groups = nodes if compound is _NO_COMPOUND else (*nodes, *map(leaf_nodes, compound))
        dangling: set[str] = set()
        for node in itertools.chain(*groups):
            # A bool is an int, and 1.0 == 1; neither names a node.
            if type(node) is not int or not 0 <= node < count:
                dangling.add(f"node#{node!r}")
            elif POLICY_LABEL in table[node].labels:
                dangling.add(table[node].name)
        if dangling:
            names = ", ".join(sorted(dangling))
            raise DanglingConditionRefError(
                f"policy {name!r} references non-condition nodes: {names}"
            )
        policy = Policy(name, decision, score or 0, len(self._policies), nodes, compound)
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


def dnf_expand(policy: Policy) -> list[Policy]:
    """Rewrite a Not-free compound policy into simple conjunctive policies.

    Each output covers one combination of DNF terms across the three slots;
    output count is the product of per-slot term counts.  A slot's terms are
    read off its program in one loop, one term list per op, so a part that
    several parents share is expanded once.  Each term holds the slot's
    plain nodes, then the nodes of its expressions in the order they were
    given, each once.  Names get a ``#index`` suffix; decision, score, and
    seq are copied.
    """
    slots: list[list[tuple[NodeRef, ...]]] = []
    for nodes, compiled in zip(policy.nodes, policy.compound):
        # The terms of each op, by position; the last op is the AND of the
        # slot's expressions.
        terms: list[list[tuple[NodeRef, ...]]] = []
        for op, arg in compiled[1] if compiled else ():
            if op == REF:
                terms.append([(arg,)])
            elif op == OR:
                terms.append([t for i in arg for t in terms[i]])
            elif op == AND:
                combos = itertools.product(*(terms[i] for i in arg))
                terms.append([tuple(dict.fromkeys(itertools.chain(*c))) for c in combos])
            else:
                raise NegationNotExpandableError(
                    "cannot expand a NOT condition; rewrite with an explicit Deny policy"
                )
        slots.append([tuple(dict.fromkeys(nodes + t)) for t in (terms[-1] if terms else [()])])
    name, decision, score, seq = policy.name, policy.decision, policy.score, policy.seq
    return [
        Policy(f"{name}#{i}", decision, score, seq, combo, _NO_COMPOUND)
        for i, combo in enumerate(itertools.product(*slots))
    ]
