"""Random document generation shared by the DSL round-trip tests."""

from __future__ import annotations

import random
import string

from graphabac.dsl import EdgeDecl, ModelDocument, NameRef, NodeDecl, PolicyDecl
from graphabac.policy import And, ConditionType, Decision, Not, Or

_NAME_CHARS = string.ascii_letters + string.digits + "_ '"


def random_name(rng: random.Random, used: set[str]) -> str:
    while True:
        if rng.random() < 0.5:
            name = rng.choice(string.ascii_letters) + "".join(
                rng.choice(string.ascii_letters + string.digits + "_")
                for _ in range(rng.randint(0, 8))
            )
        else:
            name = "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 12)))
        if name.strip() and name not in used:
            used.add(name)
            return name


def random_expr(rng: random.Random, names: list[str], depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        return NameRef(rng.choice(names))
    if roll < 0.65:
        return Not(random_expr(rng, names, depth - 1))
    kind = And if rng.random() < 0.5 else Or
    return kind(
        tuple(random_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 3)))
    )


def random_document(rng: random.Random) -> ModelDocument:
    doc = ModelDocument()
    used: set[str] = set()
    n_nodes = rng.randint(3, 12)
    names: list[str] = []
    for i in range(n_nodes):
        name = random_name(rng, used)
        names.append(name)
        labels = tuple(
            rng.sample(("Primitive", "Attribute", "Subject", "Object", "Role"),
                       rng.randint(1, 2))
        )
        props = {}
        if rng.random() < 0.3:
            props = {
                "weight": rng.randint(0, 9),
                "note": random_name(rng, set()),
                "active": rng.random() < 0.5,
            }
        doc.nodes.append(NodeDecl(name, labels, props))
    # HAS_ATTR edges forward in declaration order keep the subgraph acyclic.
    for _ in range(rng.randint(0, 2 * n_nodes)):
        i, j = sorted(rng.sample(range(n_nodes), 2))
        rel = rng.choice(("HAS_ATTR", "HAS_ATTR", "OWNER_OF"))
        doc.edges.append(EdgeDecl(names[i], rel, names[j]))
    for p in range(rng.randint(0, 4)):
        slots = {
            t: [random_expr(rng, names) for _ in range(rng.randint(1, 3))]
            for t in ConditionType
        }
        doc.policies.append(
            PolicyDecl(
                random_name(rng, used),
                rng.choice((Decision.PERMIT, Decision.DENY)),
                rng.randint(0, 9) if rng.random() < 0.5 else None,
                slots,
            )
        )
    return doc


MALFORMED_CORPUS = [
    "node",
    "node : Label",
    'node "x" Label',
    "node x : ",
    "node x : Label {",
    'node x : Label {k = }',
    "edge a -[HAS_ATTR] b",
    "edge a ->(x) b",
    "policy P { subject: a; }",
    "policy P permit { subject a; }",
    "policy P permit { subject: ; }",
    "policy P permit { subject: (a); }",
    "policy P permit { subject: (a and b or c); }",
    "policy P permit { subject: not; }",
    "policy P permit score x { subject: a; }",
    'node "unterminated : Label',
    "garbage tokens here",
    "policy P permit { subject: a ",
    "@@@",
    'node x : Label {k = "bad\\qescape"}',
]
