"""Policy construction, validation, and DNF expansion.

A policy carries a Permit/Deny decision, an optional score, an insertion
sequence number, and one non-empty set of condition expressions per
condition type (subject / action / object).  The expressions in one slot
are conjunctive; disjunction lives only inside ``Or`` trees.
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


@dataclass
class ValidityReport:
    valid: bool
    missing_types: frozenset[ConditionType] = frozenset()
    dangling_refs: frozenset[str] = frozenset()


def validate_policy(graph: Graph, policy: Policy) -> ValidityReport:
    """Check the non-empty-slot rule and that every Ref targets a real,
    non-Policy node."""
    missing = frozenset(t for t in ConditionType if not policy.conditions.get(t))
    dangling: set[str] = set()
    for exprs in policy.conditions.values():
        for expr in exprs:
            for leaf in ref_leaves(expr):
                if not 0 <= leaf.node < graph.node_count():
                    dangling.add(f"node#{leaf.node}")
                elif graph.node(leaf.node).has_label(POLICY_LABEL):
                    dangling.add(graph.node(leaf.node).name)
    return ValidityReport(
        valid=not missing and not dangling,
        missing_types=missing,
        dangling_refs=frozenset(dangling),
    )


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
        candidate = Policy(name, decision, score or 0, self._next_seq, frozen)
        report = validate_policy(self.graph, candidate)
        if report.missing_types:
            raise MissingConditionTypeError(name, report.missing_types)
        if report.dangling_refs:
            names = ", ".join(sorted(report.dangling_refs))
            raise DanglingConditionRefError(
                f"policy {name!r} references non-condition nodes: {names}"
            )
        self._policies[name] = candidate
        self._next_seq += 1
        return candidate

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

    def validate(self, name: str) -> ValidityReport:
        return validate_policy(self.graph, self.get(name))

    def required_conditions(self, name: str, t: ConditionType) -> frozenset[ConditionExpr]:
        return self.get(name).conditions.get(t, frozenset())


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
    per_slot: list[tuple[ConditionType, list[tuple[Ref, ...]]]] = []
    for t in ConditionType:
        exprs = sorted(policy.conditions.get(t, ()), key=_expr_key)
        slot_terms: list[tuple[Ref, ...]] = [()]
        for expr in exprs:
            slot_terms = [a + b for a in slot_terms for b in _dnf_terms(expr)]
        per_slot.append((t, slot_terms))
    out: list[Policy] = []
    for i, combo in enumerate(itertools.product(*(terms for _, terms in per_slot))):
        conditions = {
            t: frozenset(term) for (t, _), term in zip(per_slot, combo)
        }
        out.append(
            Policy(
                name=f"{policy.name}#{i}",
                decision=policy.decision,
                score=policy.score,
                seq=policy.seq,
                conditions=conditions,
            )
        )
    return out
