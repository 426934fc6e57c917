"""Seeded workload generation for the decision benchmark.

A workload is a model (nodes, HAS_ATTR edges, policies) plus a list of
requests.  Models are plain data here and reach the engine only as `.abac`
text, so the engine under test never sees the generator.  Expressions are
a bare node name for a reference, or a tuple ``("not", e)``,
``("and", (e, ...))`` or ``("or", (e, ...))``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Optional, Union

ALGORITHMS = (
    "deny-overrides",
    "permit-overrides",
    "first-applicable",
    "max-score-deny-overrides",
    "shortest-path-deny-overrides",
)
SLOTS = ("subject", "action", "object")
HAS_ATTR = "HAS_ATTR"

Expr = Union[str, tuple]


@dataclass
class PolicySpec:
    name: str
    permit: bool
    score: int
    slots: tuple[tuple[Expr, ...], tuple[Expr, ...], tuple[Expr, ...]]
    # One primitive per slot whose closure the slot's conditions came from,
    # so the query (anchors) is known to match this policy.
    anchors: Optional[tuple[str, str, str]] = None

    def is_compound(self) -> bool:
        return any(not isinstance(e, str) for exprs in self.slots for e in exprs)


@dataclass
class ModelSpec:
    nodes: list[tuple[str, tuple[str, ...]]]
    edges: list[tuple[str, str, str]]
    policies: list[PolicySpec]


@dataclass
class Request:
    """One serve request line; ``query`` is None for a malformed one."""

    id: str
    line: str
    query: Optional[tuple[str, str, str, str]]  # subject, action, object, algorithm
    kind: str  # "valid", "bad-json", "unknown-node", "unknown-algorithm"


@dataclass
class Workload:
    spec: ModelSpec
    model_text: str
    requests: list[Request]


# -- model text -------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = {
    "node", "edge", "policy", "permit", "deny", "score",
    "subject", "action", "object", "not", "and", "or", "true", "false",
}


def _name(name: str) -> str:
    if _IDENT.match(name) and name not in _KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _expr(e: Expr) -> str:
    if isinstance(e, str):
        return _name(e)
    if e[0] == "not":
        return "not " + _expr(e[1])
    return "(" + f" {e[0]} ".join(_expr(c) for c in e[1]) + ")"


def model_text(spec: ModelSpec) -> str:
    out = [f"node {_name(n)} : {', '.join(labels)}" for n, labels in spec.nodes]
    out += [f"edge {_name(s)} -[{r}]-> {_name(d)}" for s, r, d in spec.edges]
    for p in spec.policies:
        out.append(f"policy {_name(p.name)} {'permit' if p.permit else 'deny'} score {p.score} {{")
        for slot, exprs in zip(SLOTS, p.slots):
            out.append(f"    {slot}: " + "; ".join(_expr(e) for e in exprs) + ";")
        out.append("}")
    return "\n".join(out) + "\n"


_TOKEN = re.compile(
    r'\s+|#[^\n]*|(?P<tok>"(?:[^"\\\n]|\\.)*"|-\[|\]->|[A-Za-z_0-9]+|[{}():,;=])'
)


def read_model_text(text: str) -> ModelSpec:
    """Read `.abac` text into a ModelSpec, independently of the engine's parser.

    Raises ValueError on anything it does not understand.  Node properties
    are skipped; they play no part in decisions.
    """
    toks: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unreadable model text at offset {pos}")
        if m.group("tok"):
            toks.append(m.group("tok"))
        pos = m.end()
    toks.append("")
    i = 0

    def take(expected: Optional[str] = None) -> str:
        nonlocal i
        tok = toks[i]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        i += 1
        return tok

    def name() -> str:
        tok = take()
        if tok.startswith('"'):
            return re.sub(r"\\(.)", r"\1", tok[1:-1])
        if not tok or not (tok[0].isalpha() or tok[0] == "_"):
            raise ValueError(f"expected a name, found {tok!r}")
        return tok

    def expr() -> Expr:
        if toks[i] == "not":
            take()
            return ("not", expr())
        if toks[i] == "(":
            take()
            children = [expr()]
            op = toks[i]
            while toks[i] == op and op in ("and", "or"):
                take()
                children.append(expr())
            take(")")
            return (op, tuple(children))
        return name()

    spec = ModelSpec([], [], [])
    while toks[i]:
        kw = take()
        if kw == "node":
            n = name()
            take(":")
            labels = [take()]
            while toks[i] == ",":
                take()
                labels.append(take())
            if toks[i] == "{":
                while take() != "}":
                    pass
            spec.nodes.append((n, tuple(labels)))
        elif kw == "edge":
            src = name()
            take("-[")
            rel = take()
            take("]->")
            spec.edges.append((src, rel, name()))
        elif kw == "policy":
            pname = name()
            decision = take()
            score = 0
            if toks[i] == "score":
                take()
                score = int(take())
            take("{")
            slots: dict[str, list[Expr]] = {}
            while toks[i] != "}":
                slot = take()
                if slot not in SLOTS:
                    raise ValueError(f"unknown slot {slot!r}")
                take(":")
                exprs = slots.setdefault(slot, [])
                exprs.append(expr())
                while toks[i] == ";":
                    take()
                    if toks[i] not in ("}",) + SLOTS:
                        exprs.append(expr())
            take("}")
            spec.policies.append(
                PolicySpec(
                    pname, decision == "permit", score,
                    tuple(tuple(slots.get(s, ())) for s in SLOTS),
                )
            )
        else:
            raise ValueError(f"unexpected {kw!r}")
    return spec


# -- generators -------------------------------------------------------


def layered_graph(
    rng: random.Random, n_prim: int, n_attr: int, n_layers: int, n_edges: int
) -> tuple[list[str], list[str], list[tuple[str, str, str]]]:
    """Primitives plus attribute layers; HAS_ATTR edges only point to higher
    layers, so the graph is acyclic and its depth is at most ``n_layers``."""
    prims = [f"p{i}" for i in range(n_prim)]
    layers = [prims]
    remaining = n_attr
    for li in range(n_layers):
        size = max(1, remaining // (n_layers - li))
        remaining -= size
        layers.append([f"a{li}_{j}" for j in range(size)])
    edges: dict[tuple[str, str], None] = {}
    for _ in range(n_edges):
        li = rng.randrange(len(layers) - 1)
        lj = rng.randrange(li + 1, len(layers))
        edges[(rng.choice(layers[li]), rng.choice(layers[lj]))] = None
    attrs = [n for layer in layers[1:] for n in layer]
    return prims, attrs, [(s, HAS_ATTR, d) for s, d in edges]


def closures_of(edges: list[tuple[str, str, str]], starts: list[str]) -> dict[str, list[str]]:
    """Every node reachable from each start (itself included), in BFS order."""
    out: dict[str, list[str]] = {}
    for s, _, d in edges:
        out.setdefault(s, []).append(d)
    result = {}
    for start in starts:
        seen = {start: None}
        frontier = [start]
        while frontier:
            nxt = []
            for n in frontier:
                for m in out.get(n, ()):
                    if m not in seen:
                        seen[m] = None
                        nxt.append(m)
            frontier = nxt
        result[start] = list(seen)
    return result


def _compound(rng: random.Random, pool: list[str], outside) -> Expr:
    """A compound expression that holds for every primitive whose closure is
    ``pool``: ``outside()`` draws a node out of that closure."""
    kind = rng.randrange(4)
    if kind == 0:
        return ("not", outside())
    if kind == 1:
        return ("or", (rng.choice(pool), outside()))
    if kind == 2:
        return ("and", (rng.choice(pool), rng.choice(pool)))
    return ("not", ("and", (rng.choice(pool), outside())))


def make_policies(
    rng: random.Random,
    prims: list[str],
    all_nodes: list[str],
    closure: dict[str, list[str]],
    n: int,
    anchored_frac: float,
    compound_frac: float,
    max_refs: int = 3,
) -> list[PolicySpec]:
    policies = []
    for i in range(n):
        anchors = tuple(rng.choice(prims) for _ in SLOTS) if rng.random() < anchored_frac else None
        compound = rng.random() < compound_frac
        compound_slot = rng.randrange(3)
        slots = []
        for t in range(3):
            pool = closure[anchors[t]] if anchors else all_nodes
            inside = set(pool) if anchors else set()

            def outside() -> str:
                while True:
                    x = rng.choice(all_nodes)
                    if x not in inside:
                        return x

            exprs: list[Expr] = list(rng.sample(pool, rng.randint(1, min(max_refs, len(pool)))))
            if compound and (t == compound_slot or rng.random() < 0.3):
                c = _compound(rng, pool, outside)
                # A slot whose only evidence is negative takes a length of
                # depth + 1; keep some of those.
                exprs = [c] if c[0] == "not" and rng.random() < 0.5 else exprs[:-1] + [c]
            slots.append(tuple(exprs))
        policies.append(
            PolicySpec(
                f"pol{i}", rng.random() >= 0.3, rng.randint(0, 5), tuple(slots), anchors
            )
        )
    return policies


def make_requests(
    rng: random.Random,
    queries: list[tuple[str, str, str]],
    n: int,
    malformed_share: float = 0.0,
    known: frozenset = frozenset(),
) -> list[Request]:
    """Serve request lines, each with an algorithm drawn uniformly; about
    ``malformed_share`` of them malformed, split evenly across three kinds."""
    out = []
    for i in range(n):
        s, a, o = queries[i]
        alg = rng.choice(ALGORITHMS)
        rec = {"id": f"r{i}", "subject": s, "action": a, "object": o, "algorithm": alg}
        if rng.random() >= malformed_share:
            out.append(Request(rec["id"], json.dumps(rec), (s, a, o, alg), "valid"))
            continue
        kind = rng.choice(("bad-json", "unknown-node", "unknown-algorithm"))
        if kind == "bad-json":
            line = json.dumps(rec)[: rng.randrange(1, 30)]
        elif kind == "unknown-node":
            missing = f"nobody_{i}"
            if missing in known:
                raise ValueError(f"the model has a node named {missing!r}")
            rec[rng.choice(SLOTS)] = missing
            line = json.dumps(rec)
        else:
            rec["algorithm"] = "best-effort"
            line = json.dumps(rec)
        out.append(Request(rec["id"], line, None, kind))
    return out


def _anchored_queries(
    rng: random.Random, spec: ModelSpec, prims: list[str], n: int
) -> list[tuple[str, str, str]]:
    """Half of the queries are some anchored policy's anchors, so they match
    at least that policy; the rest are random primitives."""
    anchors = [p.anchors for p in spec.policies if p.anchors]
    return [
        rng.choice(anchors) if rng.random() < 0.5
        else (rng.choice(prims), rng.choice(prims), rng.choice(prims))
        for _ in range(n)
    ]


def generated(
    name: str,
    seed: int,
    *,
    n_prim: int,
    n_attr: int,
    n_layers: int,
    n_edges: int,
    n_policies: int,
    anchored_frac: float,
    compound_frac: float,
    n_requests: int,
) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    prims, attrs, edges = layered_graph(rng, n_prim, n_attr, n_layers, n_edges)
    closure = closures_of(edges, prims)
    all_nodes = prims + attrs
    policies = make_policies(
        rng, prims, all_nodes, closure, n_policies, anchored_frac, compound_frac
    )
    nodes = [(p, ("Primitive",)) for p in prims] + [(a, ("Attribute",)) for a in attrs]
    spec = ModelSpec(nodes, edges, policies)
    queries = _anchored_queries(rng, spec, prims, n_requests)
    requests = make_requests(rng, queries, n_requests)
    return Workload(spec, model_text(spec), requests)


def serve_small(seed: int, healthcare_text: str, n_requests: int = 20000) -> Workload:
    rng = random.Random(f"serve-small:{seed}")
    spec = read_model_text(healthcare_text)
    by_label: dict[str, list[str]] = {}
    for n, labels in spec.nodes:
        for lab in labels:
            by_label.setdefault(lab, []).append(n)
    queries = [
        (rng.choice(by_label["Subject"]), rng.choice(by_label["Action"]),
         rng.choice(by_label["Object"]))
        for _ in range(n_requests)
    ]
    known = frozenset(n for n, _ in spec.nodes)
    requests = make_requests(rng, queries, n_requests, malformed_share=0.05, known=known)
    return Workload(spec, healthcare_text, requests)


def build(name: str, seed: int, healthcare_text: str) -> Workload:
    if name == "policy-scan":
        # The ROADMAP baseline graph: 10k nodes, ~32k HAS_ATTR edges, depth 5.
        return generated(
            name, seed, n_prim=2000, n_attr=8000, n_layers=5, n_edges=32000,
            n_policies=10000, anchored_frac=0.5, compound_frac=0.0, n_requests=4000,
        )
    if name == "graph-deep":
        return generated(
            name, seed, n_prim=1000, n_attr=10000, n_layers=8, n_edges=66000,
            n_policies=150, anchored_frac=0.5, compound_frac=0.3, n_requests=8000,
        )
    if name == "serve-small":
        return serve_small(seed, healthcare_text)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("policy-scan", "graph-deep", "serve-small")
