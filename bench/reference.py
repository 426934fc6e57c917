"""Reference decision procedure, written from the model's definitions.

It shares no code with the engine.  A condition node is satisfied by a
query primitive when a chain of 0..depth HAS_ATTR edges leads from the
primitive to it, where depth is the longest HAS_ATTR chain in the model.
A slot holds when every expression in it holds (``not``/``and``/``or`` as
usual); a policy matches when all three slots hold.  A slot's length is
1 + the fewest hops to any of its reference leaves that is reachable, or
depth + 1 when none is.  No matching policy means Deny.
"""

from __future__ import annotations

from typing import Optional

from workloads import HAS_ATTR, Expr, ModelSpec, PolicySpec


def _leaves(e: Expr):
    if isinstance(e, str):
        yield e
    elif e[0] == "not":
        yield from _leaves(e[1])
    else:
        for c in e[1]:
            yield from _leaves(c)


def _holds(e: Expr, reach: dict[str, int]) -> bool:
    if isinstance(e, str):
        return e in reach
    if e[0] == "not":
        return not _holds(e[1], reach)
    if e[0] == "and":
        return all(_holds(c, reach) for c in e[1])
    if e[0] == "or":
        return any(_holds(c, reach) for c in e[1])
    raise ValueError(f"unknown expression {e!r}")


def _deny_overrides(matched: list[PolicySpec]) -> str:
    if not matched:
        return "Deny"
    return "Deny" if any(not p.permit for p in matched) else "Permit"


class Reference:
    def __init__(self, spec: ModelSpec) -> None:
        self.succ: dict[str, list[str]] = {}
        for s, rel, d in spec.edges:
            if rel == HAS_ATTR:
                self.succ.setdefault(s, []).append(d)
        self.depth = self._longest_chain()
        self.policies = spec.policies
        # Candidate filter only: a policy whose slots are plain references can
        # match only queries whose subject reaches its first subject reference.
        # Every candidate is then checked in full.
        self._by_first_subject: dict[str, list[int]] = {}
        self._always_check: list[int] = []
        for i, p in enumerate(self.policies):
            if p.is_compound():
                self._always_check.append(i)
            else:
                self._by_first_subject.setdefault(p.slots[0][0], []).append(i)
        self._closures: dict[str, dict[str, int]] = {}
        self._answers: dict[tuple, tuple[str, tuple[str, ...]]] = {}

    def _longest_chain(self) -> int:
        memo: dict[str, int] = {}
        active: set[str] = set()

        def longest(n: str) -> int:
            if n in memo:
                return memo[n]
            if n in active:
                raise ValueError(f"HAS_ATTR cycle through {n!r}")
            active.add(n)
            memo[n] = max((1 + longest(m) for m in self.succ.get(n, ())), default=0)
            active.discard(n)
            return memo[n]

        return max((longest(n) for n in list(self.succ)), default=0)

    def reach(self, x: str) -> dict[str, int]:
        """Fewest hops from ``x`` to each node within ``depth`` hops."""
        got = self._closures.get(x)
        if got is None:
            got = {x: 0}
            frontier = [x]
            for hops in range(1, self.depth + 1):
                nxt = []
                for n in frontier:
                    for m in self.succ.get(n, ()):
                        if m not in got:
                            got[m] = hops
                            nxt.append(m)
                frontier = nxt
            self._closures[x] = got
        return got

    def _slot_length(self, exprs, reach: dict[str, int]) -> Optional[int]:
        if not all(_holds(e, reach) for e in exprs):
            return None
        hops = [reach[leaf] for e in exprs for leaf in _leaves(e) if leaf in reach]
        return 1 + min(hops) if hops else self.depth + 1

    def matches(self, s: str, a: str, o: str) -> list[tuple[PolicySpec, int]]:
        """Matching policies in model order, each with its total length."""
        reaches = (self.reach(s), self.reach(a), self.reach(o))
        candidates = set(self._always_check)
        for n in reaches[0]:
            candidates.update(self._by_first_subject.get(n, ()))
        out = []
        for i in sorted(candidates):
            p = self.policies[i]
            total = 0
            for exprs, reach in zip(p.slots, reaches):
                length = self._slot_length(exprs, reach)
                if length is None:
                    break
                total += length
            else:
                out.append((p, total))
        return out

    def decide(self, s: str, a: str, o: str, alg: str) -> tuple[str, tuple[str, ...]]:
        """(decision, names of all matching policies in model order)."""
        key = (s, a, o, alg)
        got = self._answers.get(key)
        if got is not None:
            return got
        matched = self.matches(s, a, o)
        policies = [p for p, _ in matched]
        if alg == "deny-overrides":
            decision = _deny_overrides(policies)
        elif alg == "permit-overrides":
            decision = "Permit" if any(p.permit for p in policies) else "Deny"
        elif alg == "first-applicable":
            decision = ("Permit" if policies[0].permit else "Deny") if policies else "Deny"
        elif alg == "max-score-deny-overrides":
            top = max((p.score for p in policies), default=None)
            decision = _deny_overrides([p for p in policies if p.score == top])
        elif alg == "shortest-path-deny-overrides":
            best = min((n for _, n in matched), default=None)
            decision = _deny_overrides([p for p, n in matched if n == best])
        else:
            raise ValueError(f"unknown algorithm {alg!r}")
        got = (decision, tuple(p.name for p in policies))
        self._answers[key] = got
        return got
