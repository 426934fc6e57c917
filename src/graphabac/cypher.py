"""Neo4j Cypher script generation.

Emits textual scripts only: data creation, policy-subgraph creation, and
the three-stage decision statement for the combining algorithms that have
a complete statement form.  Output is deterministic for a given document.
"""

from __future__ import annotations

from .combine import CombiningAlgorithm
from .dsl import AndExpr, ModelDocument, NameRef, NotExpr, OrExpr, PolicyDecl
from .errors import UnsupportedAlgorithmError, UnsupportedExportError
from .policy import ConditionType

_SLOT_VAR = {
    ConditionType.SUB_CON: "sub",
    ConditionType.ACT_CON: "act",
    ConditionType.OBJ_CON: "obj",
}


def quote(value) -> str:
    """Single-quoted Cypher string literal; embedded quotes are doubled."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


def emit_cypher_data(doc: ModelDocument) -> str:
    """One create statement per node, one merge per edge."""
    lines: list[str] = []
    for nd in doc.nodes:
        labels = "".join(f":{lab}" for lab in nd.labels)
        props = [f"name:{quote(nd.name)}"]
        props += [f"{k}:{quote(v)}" for k, v in sorted(nd.properties.items())]
        lines.append(f"create ({labels} {{{', '.join(props)}}});")
    if doc.nodes and doc.edges:
        lines.append("")
    for ed in doc.edges:
        lines.append(
            f"match (a {{name:{quote(ed.src)}}}), (b {{name:{quote(ed.dst)}}}) "
            f"merge (a)-[:{ed.rel_type}]->(b);"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _simple_slot_names(pd: PolicyDecl, t: ConditionType) -> list[str]:
    names: list[str] = []
    for decl in pd.slots.get(t, []):
        if isinstance(decl, NameRef):
            names.append(decl.name)
        elif isinstance(decl, (NotExpr, AndExpr, OrExpr)):
            raise UnsupportedExportError(
                f"policy {pd.name!r} has compound conditions; "
                "expand it to simple policies before export"
            )
    return names


def emit_cypher_policies(doc: ModelDocument) -> str:
    """Per policy: match the condition nodes, create the policy node, merge
    one typed condition edge per required condition."""
    chunks: list[str] = []
    for pd in doc.policies:
        match_parts: list[str] = []
        merges: list[str] = []
        for t in ConditionType:
            var = _SLOT_VAR[t]
            for i, name in enumerate(_simple_slot_names(pd, t), start=1):
                alias = f"{var}{i}"
                match_parts.append(f"({alias} {{name:{quote(name)}}})")
                merges.append(f"merge (pol)<-[:{t.name}]- ({alias})")
        props = [f"name:{quote(pd.name)}", f"decision:{quote(pd.decision.value)}"]
        if pd.score is not None:
            props.append(f"score:{pd.score}")
        chunk = [
            f"// {pd.name} - {pd.decision.value}",
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
    lines = ["with $AQ as req"]
    for index, (label, var, param, rel, first) in enumerate(_STAGES, start=1):
        lines.append(f"// Stage {index} - {label} Conditions")
        pol_pattern = "(pol:Policy)" if first else "(pol)"
        if track_length:
            plen = "length(path)" if first else "length(path) + plen"
            lines.append(
                f"match path=({var} {{name:req.{param}}})"
                f"-[:HAS_ATTR*0..{depth}]->(sc)-[:{rel}]->{pol_pattern}"
            )
            lines.append(
                f"with req, pol, {plen} as plen, "
                "size(collect(distinct sc)) as sat_cons"
            )
            lines.append(f"match (pol)<-[:{rel}]- (rc)")
            lines.append(
                "with req, pol, plen, sat_cons, size(collect(rc)) as req_cons "
                "where req_cons = sat_cons"
            )
        else:
            lines.append(
                f"match ({var} {{name:req.{param}}})"
                f"-[:HAS_ATTR*0..{depth}]->(sc)-[:{rel}]->{pol_pattern}"
            )
            lines.append("with req, pol, size(collect(distinct sc)) as sat_cons")
            lines.append(f"match (pol)<-[:{rel}]- (rc)")
            lines.append(
                "with req, pol, sat_cons, size(collect(rc)) as req_cons "
                "where req_cons = sat_cons"
            )
    if track_length:
        lines.append("with plen, collect(pol) as pols order by plen asc limit 1")
        lines.append("unwind pols as pol")
        lines.append(_RETURN_CLAUSES[CombiningAlgorithm.DENY_OVERRIDES])
    else:
        lines.append(_RETURN_CLAUSES[alg])
    return "\n".join(lines) + "\n"
