"""Policy construction, validation, and DNF expansion.

A policy carries a Permit/Deny decision, an optional score, an insertion
sequence number, and one non-empty set of condition expressions per
condition type (subject / action / object).  The expressions in one slot
are conjunctive; disjunction lives only inside ``Or`` trees.

``PolicyStore.create_policy`` is the validity gate: it is the only code
that rejects a policy with an empty slot or a condition that does not name
an attribute or primitive node, so every stored policy is well-formed.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .errors import (
    DanglingConditionRefError,
    DuplicatePolicyError,
    MissingConditionTypeError,
    NegationNotExpandableError,
    UnknownPolicyError,
)
from .graph import Graph, NodeRef, POLICY_LABEL


class ConditionType(enum.Enum):
    SUB_CON = "subject"
    ACT_CON = "action"
    OBJ_CON = "object"


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
    """Ordered store of valid policies built over a graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._policies: dict[str, Policy] = {}
        self._next_seq = 0

    def create_policy(
        self,
        name: str,
        decision: Decision,
        conditions: Mapping[ConditionType, set[ConditionExpr] | frozenset[ConditionExpr]],
        score: Optional[int] = None,
    ) -> Policy:
        if name in self._policies:
            raise DuplicatePolicyError(f"policy {name!r} already exists")
        frozen = {t: frozenset(conditions.get(t, ())) for t in ConditionType}
        policy = Policy(name, decision, score or 0, self._next_seq, frozen)
        missing = [t for t in ConditionType if not frozen[t]]
        if missing:
            raise MissingConditionTypeError(name, missing)
        graph = self.graph
        dangling: set[str] = set()
        for exprs in frozen.values():
            for expr in exprs:
                for leaf in ref_leaves(expr):
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
        self._next_seq += 1
        return policy

    def get(self, name: str) -> Policy:
        try:
            return self._policies[name]
        except KeyError:
            raise UnknownPolicyError(f"no policy named {name!r}") from None

    def policies(self) -> list[Policy]:
        """Stored policies in ``seq`` order, which is insertion order."""
        return list(self._policies.values())

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
