"""Neo4j Cypher script generation.

Emits textual scripts only: data creation, policy-subgraph creation, and
the three-stage decision statement for the combining algorithms that have
a complete statement form.  The data and policy scripts are read from the
loaded model, so they hold exactly what the engine decides on.

Output is deterministic for a given model.  Nodes come in declaration
order.  Edges come in ``Graph.edges()`` order: source node, then
relationship type, then target.  Policies come in ``seq`` order, and a
slot's refs come in node order.  ``score`` is emitted only when it is
non-zero.
"""

from __future__ import annotations

import re

from .combine import CombiningAlgorithm
from .errors import UnsupportedAlgorithmError, UnsupportedExportError
from .graph import Graph
from .policy import ConditionType, PolicyStore

_SLOT_VAR = {
    ConditionType.SUB_CON: "sub",
    ConditionType.ACT_CON: "act",
    ConditionType.OBJ_CON: "obj",
}


def quote(value) -> str:
    """Single-quoted Cypher string literal.  Cypher reads a backslash in a
    string as the start of an escape, so each one is doubled, and so is
    each embedded quote."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    text = str(value).replace("\\", "\\\\").replace("'", "''")
    return f"'{text}'"


# A label, relationship type or property key that Cypher reads unquoted.
_PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def quote_name(value) -> str:
    """A label, relationship type or property key as Cypher reads it: as it
    is when it is a plain name, or else backtick-quoted with each embedded
    backtick doubled, so no name can end its statement or start another."""
    text = str(value)
    if _PLAIN_NAME.fullmatch(text):
        return text
    return "`" + text.replace("`", "``") + "`"


def emit_cypher_data(graph: Graph) -> str:
    """One create statement per node, one merge per edge."""
    lines: list[str] = []
    for nd in graph.nodes():
        labels = "".join(f":{quote_name(lab)}" for lab in nd.labels)
        props = [f"name:{quote(nd.name)}"]
        props += [f"{quote_name(k)}:{quote(v)}" for k, v in sorted(nd.properties.items())]
        lines.append(f"create ({labels} {{{', '.join(props)}}});")
    edges = [
        f"match (a {{name:{quote(graph.node(src).name)}}}), "
        f"(b {{name:{quote(graph.node(dst).name)}}}) merge (a)-[:{quote_name(rel_type)}]->(b);"
        for src, rel_type, dst in graph.edges()
    ]
    if lines and edges:
        lines.append("")
    lines += edges
    return "\n".join(lines) + ("\n" if lines else "")


def emit_cypher_policies(store: PolicyStore) -> str:
    """Per policy: match the condition nodes, create the policy node, merge
    one typed condition edge per required condition."""
    graph = store.graph
    chunks: list[str] = []
    for pol in store:
        if any(pol.compound):
            raise UnsupportedExportError(
                f"policy {pol.name!r} has compound conditions; "
                "expand it to simple policies before export"
            )
        match_parts: list[str] = []
        merges: list[str] = []
        for t, nodes in zip(ConditionType, pol.nodes):
            var = _SLOT_VAR[t]
            for i, ref in enumerate(sorted(nodes), start=1):
                alias = f"{var}{i}"
                match_parts.append(f"({alias} {{name:{quote(graph.node(ref).name)}}})")
                merges.append(f"merge (pol)<-[:{t.name}]- ({alias})")
        props = [f"name:{quote(pol.name)}", f"decision:{quote(pol.decision.value)}"]
        if pol.score:
            props.append(f"score:{pol.score}")
        chunk = [
            f"// {pol.name} - {pol.decision.value}",
            "match " + ", ".join(match_parts),
            f"create (pol:Policy {{{', '.join(props)}}})",
        ]
        chunk.extend(merges)
        chunks.append("\n".join(chunk) + ";")
    return "\n\n".join(chunks) + ("\n" if chunks else "")


_RETURN_CLAUSES = {
    CombiningAlgorithm.DENY_OVERRIDES: (
        "return case when count(pol) = 0 or 'Deny' in collect(pol.decision) "
        "then 'Deny' else 'Permit' end as decision"
    ),
    CombiningAlgorithm.PERMIT_OVERRIDES: (
        "return case when 'Permit' in collect(pol.decision) "
        "then 'Permit' else 'Deny' end as decision"
    ),
}

# Stage order follows the sample use-case statement: subject, object, action.
_STAGES = (
    ("Subject", "sub", "SUBJECT_NAME", "SUB_CON", True),
    ("Object", "obj", "OBJECT_NAME", "OBJ_CON", False),
    ("Action", "act", "ACTION_NAME", "ACT_CON", False),
)


def emit_cypher_decision_query(alg: CombiningAlgorithm, depth: int) -> str:
    """The three-stage matching statement with the algorithm's return clause.

    Only deny-overrides, permit-overrides, and shortest-path-deny-overrides
    have a complete statement form.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    track_length = alg is CombiningAlgorithm.SHORTEST_PATH_DENY_OVERRIDES
    if not track_length and alg not in _RETURN_CLAUSES:
        raise UnsupportedAlgorithmError(
            f"no complete decision statement for {alg.value!r}"
        )
    # The shortest-path form names each stage's path and carries the running
    # path length, plen, from stage to stage.
    path = "path=" if track_length else ""
    carried = "plen, " if track_length else ""
    lines = ["with $AQ as req"]
    for index, (label, var, param, rel, first) in enumerate(_STAGES, start=1):
        pol_pattern = "(pol:Policy)" if first else "(pol)"
        plen = ""
        if track_length:
            plen = "length(path) as plen, " if first else "length(path) + plen as plen, "
        lines += [
            f"// Stage {index} - {label} Conditions",
            f"match {path}({var} {{name:req.{param}}})"
            f"-[:HAS_ATTR*0..{depth}]->(sc)-[:{rel}]->{pol_pattern}",
            f"with req, pol, {plen}size(collect(distinct sc)) as sat_cons",
            f"match (pol)<-[:{rel}]- (rc)",
            f"with req, pol, {carried}sat_cons, size(collect(rc)) as req_cons "
            "where req_cons = sat_cons",
        ]
    if track_length:
        lines.append("with plen, collect(pol) as pols order by plen asc limit 1")
        lines.append("unwind pols as pol")
        lines.append(_RETURN_CLAUSES[CombiningAlgorithm.DENY_OVERRIDES])
    else:
        lines.append(_RETURN_CLAUSES[alg])
    return "\n".join(lines) + "\n"
