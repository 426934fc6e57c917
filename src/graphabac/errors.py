"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class AbacError(Exception):
    """Base class for all engine errors."""


class GraphError(AbacError):
    pass


class DuplicateNameError(GraphError):
    pass


class EmptyNameError(GraphError):
    pass


class UnknownNodeError(GraphError):
    pass


class LabelClashError(GraphError, ValueError):
    """A node labelled both Primitive and Policy."""


class SelfLoopError(GraphError):
    """HAS_ATTR edge from a node to itself."""


class AttributeCycleError(GraphError):
    """The HAS_ATTR subgraph contains a cycle."""

    def __init__(self, node_name: str):
        super().__init__(f"HAS_ATTR cycle through node {node_name!r}")
        self.node_name = node_name


class FrozenGraphError(GraphError):
    """Mutation attempted after freeze()."""


class NotFrozenError(GraphError):
    """Query evaluation attempted before freeze()."""


class PolicyError(AbacError):
    pass


class DuplicatePolicyError(PolicyError):
    pass


class UnknownPolicyError(PolicyError):
    pass


class MissingConditionTypeError(PolicyError):
    def __init__(self, policy_name: str, missing):
        names = ", ".join(sorted(t.name for t in missing))
        super().__init__(f"policy {policy_name!r} has no condition of type: {names}")
        self.policy_name = policy_name
        self.missing = frozenset(missing)


class DanglingConditionRefError(PolicyError):
    pass


class ConditionTooDeepError(PolicyError):
    """A condition nests Not/And/Or deeper than policy.MAX_NESTING levels."""


class NegationNotExpandableError(PolicyError):
    """DNF expansion does not distribute NOT; rewrite it by hand first."""


class UnsupportedAlgorithmError(AbacError):
    """No complete Cypher statement exists for this combining algorithm."""


class UnsupportedExportError(AbacError):
    """Policy subgraph export only covers simple (bare reference) policies."""
