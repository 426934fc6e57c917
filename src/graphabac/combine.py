"""Combining algorithms: reduce a match list to one Permit/Deny decision.

All five algorithms are total pure functions and default to Deny on an
empty match list.  ``combine`` returns an ``EvaluationResult``, an
immutable named tuple.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Optional

from .matcher import AccessQuery, PolicyMatch, matching_policies
from .policy import Decision, PolicyStore


class CombiningAlgorithm(enum.Enum):
    DENY_OVERRIDES = "deny-overrides"
    PERMIT_OVERRIDES = "permit-overrides"
    FIRST_APPLICABLE = "first-applicable"
    MAX_SCORE_DENY_OVERRIDES = "max-score-deny-overrides"
    SHORTEST_PATH_DENY_OVERRIDES = "shortest-path-deny-overrides"


ALGORITHM_NAMES = tuple(a.value for a in CombiningAlgorithm)

# Reading a member off an enum class runs Python code (about 0.2 us on
# CPython 3.11), so the decision path compares against these names.
_DENY_OVERRIDES = CombiningAlgorithm.DENY_OVERRIDES
_PERMIT_OVERRIDES = CombiningAlgorithm.PERMIT_OVERRIDES
_FIRST_APPLICABLE = CombiningAlgorithm.FIRST_APPLICABLE
_MAX_SCORE = CombiningAlgorithm.MAX_SCORE_DENY_OVERRIDES
_SHORTEST_PATH = CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES
_PERMIT, _DENY = Decision.PERMIT, Decision.DENY

Matches = tuple[PolicyMatch, ...]


class EvaluationResult(NamedTuple):
    """A decision, the algorithm that made it, every match in seq order and
    the matches the decision rests on: an immutable named tuple, like the
    matcher's records."""

    decision: Decision
    algorithm: CombiningAlgorithm
    matches: Matches
    deciding_policies: Matches


def _deny_overrides(matches: Matches) -> tuple[Decision, Matches]:
    denies = [m for m in matches if m.policy.decision is _DENY]
    if denies:
        return _DENY, tuple(denies)
    if matches:
        return _PERMIT, matches
    return _DENY, ()


def combine(matches: Iterable[PolicyMatch], alg: CombiningAlgorithm) -> EvaluationResult:
    """Pure reduction of an ordered match list to a decision.

    ``matches`` must be in insertion-sequence order, as produced by the
    matcher; first-applicable depends on it.  The result holds them as one
    tuple, and where the algorithm keeps every match, ``deciding_policies``
    is that same tuple.
    """
    matches = tuple(matches)
    if alg is _DENY_OVERRIDES:
        decision, deciding = _deny_overrides(matches)
    elif alg is _PERMIT_OVERRIDES:
        permits = [m for m in matches if m.policy.decision is _PERMIT]
        if permits:
            decision, deciding = _PERMIT, tuple(permits)
        else:
            decision, deciding = _DENY, matches
    elif alg is _FIRST_APPLICABLE:
        if matches:
            decision, deciding = matches[0].policy.decision, matches[:1]
        else:
            decision, deciding = _DENY, ()
    elif alg is _MAX_SCORE:
        top = max((m.policy.score for m in matches), default=None)
        decision, deciding = _deny_overrides(tuple([m for m in matches if m.policy.score == top]))
    elif alg is _SHORTEST_PATH:
        shortest = min((m.total_len for m in matches), default=None)
        decision, deciding = _deny_overrides(tuple([m for m in matches if m.total_len == shortest]))
    else:  # pragma: no cover - sealed enum
        raise ValueError(f"unknown algorithm {alg!r}")
    return EvaluationResult(decision, alg, matches, deciding)


def evaluate(
    store: PolicyStore,
    q: AccessQuery,
    alg: CombiningAlgorithm = CombiningAlgorithm.DENY_OVERRIDES,
    depth: Optional[int] = None,
) -> EvaluationResult:
    """Match then combine: the full decision pipeline for one query."""
    return combine(matching_policies(store, q, depth=depth), alg)
