"""Graph-based ABAC decision engine.

Primitives, attributes, and policies live in one in-memory property
graph; access queries are answered by bounded attribute-chain traversal
plus a selectable combining algorithm.
"""

from .combine import ALGORITHM_NAMES, CombiningAlgorithm, EvaluationResult, combine, evaluate
from .dsl import (
    LoadedModel,
    ModelDocument,
    ModelLoadError,
    load_bundled_model,
    load_document,
    load_model,
    load_model_file,
    parse_model,
)
from .graph import Graph, HAS_ATTR, Node, NodeRef
from .matcher import (
    AccessQuery,
    PolicyMatch,
    matching_policies,
    matching_policies_oracle,
)
from .policy import (
    And,
    ConditionExpr,
    ConditionType,
    Decision,
    Not,
    Or,
    Policy,
    PolicyStore,
    Ref,
    dnf_expand,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Imported on first use, like graphabac.dsl's own serializer names.
    if name == "serialize_model":
        from .serialize import serialize_model

        return serialize_model
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALGORITHM_NAMES",
    "AccessQuery",
    "And",
    "CombiningAlgorithm",
    "ConditionExpr",
    "ConditionType",
    "Decision",
    "EvaluationResult",
    "Graph",
    "HAS_ATTR",
    "LoadedModel",
    "ModelDocument",
    "ModelLoadError",
    "Node",
    "NodeRef",
    "Not",
    "Or",
    "Policy",
    "PolicyMatch",
    "PolicyStore",
    "Ref",
    "combine",
    "dnf_expand",
    "evaluate",
    "load_bundled_model",
    "load_document",
    "load_model",
    "load_model_file",
    "matching_policies",
    "matching_policies_oracle",
    "parse_model",
    "serialize_model",
]
