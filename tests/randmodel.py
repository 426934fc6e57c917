"""Random model generation shared by the randomized tests and the sweep scripts.

Attribute nodes are arranged in layers and HAS_ATTR edges only point from
lower to strictly higher layers, so generated graphs are acyclic by
construction and their attribute depth never exceeds the layer count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from graphabac.graph import Graph, HAS_ATTR, NodeRef
from graphabac.matcher import AccessQuery
from graphabac.policy import And, ConditionExpr, ConditionType, Decision, Or, PolicyStore, Ref


@dataclass
class RandomModelConfig:
    n_primitives: int = 9
    n_attributes: int = 20
    n_layers: int = 3
    edge_factor: float = 1.5  # HAS_ATTR edges per node, roughly
    n_policies: int = 10
    anchored_fraction: float = 0.5  # policies built from some primitive's closure
    deny_fraction: float = 0.3
    max_conditions_per_slot: int = 3
    score_range: tuple[int, int] = (0, 5)


@dataclass
class RandomModel:
    graph: Graph
    policies: PolicyStore
    primitives: list[NodeRef]


def random_model(rng: random.Random, cfg: RandomModelConfig = RandomModelConfig()) -> RandomModel:
    graph = Graph()
    primitives = [
        graph.add_node(f"p{i}", ("Primitive",)) for i in range(cfg.n_primitives)
    ]
    layers: list[list[NodeRef]] = [primitives]
    remaining = cfg.n_attributes
    for layer_idx in range(cfg.n_layers):
        size = max(1, remaining // (cfg.n_layers - layer_idx))
        remaining -= size
        layers.append(
            [
                graph.add_node(f"a{layer_idx}_{j}", ("Attribute",))
                for j in range(size)
            ]
        )
    n_edges = int(cfg.edge_factor * (cfg.n_primitives + cfg.n_attributes))
    for _ in range(n_edges):
        li = rng.randrange(len(layers) - 1)
        lj = rng.randrange(li + 1, len(layers))
        src = rng.choice(layers[li])
        dst = rng.choice(layers[lj])
        graph.add_edge(src, HAS_ATTR, dst)
    graph.freeze()

    attributes = [n for layer in layers[1:] for n in layer]
    candidates = primitives + attributes
    store = PolicyStore(graph)
    for i in range(cfg.n_policies):
        conditions: dict[ConditionType, list[ConditionExpr]] = {}
        if rng.random() < cfg.anchored_fraction:
            # Draw conditions from a random primitive's closure per slot so a
            # decent share of policies actually match some query.
            for t in ConditionType:
                anchor = rng.choice(primitives)
                closure = list(graph.attribute_closure(anchor, graph.attr_depth))
                k = rng.randint(1, min(cfg.max_conditions_per_slot, len(closure)))
                conditions[t] = [Ref(n) for n in rng.sample(closure, k)]
        else:
            for t in ConditionType:
                k = rng.randint(1, cfg.max_conditions_per_slot)
                conditions[t] = [Ref(n) for n in rng.sample(candidates, k)]
        decision = (
            Decision.DENY if rng.random() < cfg.deny_fraction else Decision.PERMIT
        )
        store.create_policy(
            f"pol{i}", decision, conditions, score=rng.randint(*cfg.score_range)
        )
    return RandomModel(graph, store, primitives)


def random_query(rng: random.Random, model: RandomModel) -> AccessQuery:
    return AccessQuery(
        sub=rng.choice(model.primitives),
        act=rng.choice(model.primitives),
        obj=rng.choice(model.primitives),
    )


def random_notfree_expr(
    rng: random.Random, nodes: list[NodeRef], max_depth: int = 3
) -> ConditionExpr:
    """Random And/Or/Ref tree without negation."""
    if max_depth == 0 or rng.random() < 0.4:
        return Ref(rng.choice(nodes))
    kind = rng.choice((And, Or))
    width = rng.randint(2, 3)
    children = tuple(
        random_notfree_expr(rng, nodes, max_depth - 1) for _ in range(width)
    )
    return kind(children)


def dnf_term_count(expr: ConditionExpr) -> int:
    """The number of DNF terms of a Not-free tree, counted over the tree as
    given, apart from the program ``dnf_expand`` reads: a ``Ref`` is one
    term, an ``Or`` the sum of its children's and an ``And`` their product."""
    if isinstance(expr, Ref):
        return 1
    counts = [dnf_term_count(c) for c in expr.children]
    return sum(counts) if isinstance(expr, Or) else math.prod(counts)


def primitives_reaching(model: RandomModel) -> dict[NodeRef, set[NodeRef]]:
    """For every node, the primitives whose closure holds it."""
    g = model.graph
    reached_by: dict[NodeRef, set[NodeRef]] = {}
    for p in model.primitives:
        for n in g.attribute_closure(p, g.attr_depth):
            reached_by.setdefault(n, set()).add(p)
    return reached_by


def matching_query(
    rng: random.Random, model: RandomModel, reached_by: dict[NodeRef, set[NodeRef]]
) -> AccessQuery:
    """A query that matches at least one stored policy: a policy is drawn and
    each slot gets a primitive whose closure holds all of that slot's
    conditions.  ``reached_by`` is ``primitives_reaching(model)``; the
    policies must be simple, as ``random_model`` makes them."""
    policies = model.policies.policies()
    for _ in range(10_000):
        options = [
            set.intersection(*(reached_by.get(n, set()) for n in nodes))
            for nodes in rng.choice(policies).nodes
        ]
        if all(options):
            return AccessQuery(*(rng.choice(sorted(o)) for o in options))
    raise ValueError("no stored policy found that some query can match")
