"""Command-line front end and line-delimited decision service.

Exit codes for ``check``: 0 Permit, 1 Deny, 2 usage or load error, so a
denied request is never conflated with an operational failure.  The
``serve`` loop is fail-closed: malformed or unresolvable requests get a
Deny response with an error message and processing continues.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, TextIO

from .combine import ALGORITHM_NAMES, CombiningAlgorithm, EvaluationResult, evaluate
from .cypher import emit_cypher_data, emit_cypher_decision_query, emit_cypher_policies
from .dsl import LoadedModel, ModelLoadError, load_model_file
from .errors import AbacError
from .matcher import AccessQuery, query_closures
from .policy import ConditionType, Decision, ref_leaves

EXIT_PERMIT = 0
EXIT_DENY = 1
EXIT_ERROR = 2


class _CliError(Exception):
    pass


def _load(path: str) -> LoadedModel:
    try:
        return load_model_file(path)
    except ModelLoadError as exc:
        lines = "\n".join(f"{path}:{e}" for e in exc.errors)
        raise _CliError(f"failed to load model:\n{lines}") from exc
    except OSError as exc:
        raise _CliError(str(exc)) from exc


def _resolve_query(model: LoadedModel, subject: str, action: str, obj: str) -> AccessQuery:
    refs = []
    for name in (subject, action, obj):
        ref = model.graph.find_node(name)
        if ref is None:
            raise _CliError(f"unknown node {name!r}")
        refs.append(ref)
    return AccessQuery(sub=refs[0], act=refs[1], obj=refs[2])


def _evaluate(args, model: LoadedModel) -> tuple[AccessQuery, EvaluationResult]:
    q = _resolve_query(model, args.subject, args.action, args.object)
    alg = CombiningAlgorithm(args.algorithm)
    return q, evaluate(model.policies, q, alg, depth=args.depth)


def cmd_check(args) -> int:
    model = _load(args.model)
    _, result = _evaluate(args, model)
    print(result.decision.value)
    return EXIT_PERMIT if result.decision is Decision.PERMIT else EXIT_DENY


def cmd_explain(args) -> int:
    model = _load(args.model)
    q, result = _evaluate(args, model)
    depth = args.depth if args.depth is not None else model.graph.attr_depth
    closures = query_closures(model.graph, q, depth)
    print(f"query: subject={args.subject} action={args.action} object={args.object}")
    print(f"algorithm: {result.algorithm.value} (attribute depth {depth})")
    if not result.matches:
        print("no matching policies; default Deny")
    else:
        print("matching policies:")
        for m in result.matches:
            pol = m.policy
            slots = []
            for t in ConditionType:
                sats = sorted(
                    model.graph.node(leaf.node).name
                    for e in pol.conditions[t]
                    for leaf in ref_leaves(e)
                    if leaf.node in closures[t]
                )
                slots.append(f"{t.value}={m.length(t)} [{', '.join(sats)}]")
            print(
                f"  {pol.name} [{pol.decision.value}, score {pol.score}] "
                f"{' '.join(slots)} total={m.total_len}"
            )
        print("considered by algorithm:")
        for m in result.deciding_policies:
            print(f"  {m.policy.name}")
    print(f"decision: {result.decision.value}")
    return EXIT_PERMIT if result.decision is Decision.PERMIT else EXIT_DENY


def cmd_validate(args) -> int:
    """Exit 0 when the model loads, 1 when only policies are rejected, 2 on
    any other load error."""
    try:
        model = load_model_file(args.model)
    except ModelLoadError as exc:
        for err in exc.errors:
            print(f"{args.model}:{err}", file=sys.stderr)
        hard = any(e.kind in ("syntax", "graph") for e in exc.errors)
        return EXIT_ERROR if hard else EXIT_DENY
    except OSError as exc:
        raise _CliError(str(exc)) from exc
    for policy in model.policies.policies():
        print(f"{policy.name}: valid")
    print(
        f"{len(model.policies)} policies valid; "
        f"attribute depth {model.graph.attr_depth}"
    )
    return EXIT_PERMIT


def cmd_export_cypher(args) -> int:
    model = _load(args.model)
    try:
        if args.what == "data":
            sys.stdout.write(emit_cypher_data(model.document))
        elif args.what == "policies":
            sys.stdout.write(emit_cypher_policies(model.document))
        else:
            depth = args.depth if args.depth is not None else model.graph.attr_depth
            alg = CombiningAlgorithm(args.algorithm)
            sys.stdout.write(emit_cypher_decision_query(alg, depth))
    except AbacError as exc:
        raise _CliError(str(exc)) from exc
    return EXIT_PERMIT


def serve_loop(
    model: LoadedModel,
    default_alg: CombiningAlgorithm,
    stdin: TextIO,
    stdout: TextIO,
    depth: Optional[int] = None,
) -> None:
    """One JSON request per input line, one JSON response per output line,
    in request order.  Never raises on malformed input."""
    for line in stdin:
        if not line.strip():
            continue
        stdout.write(json.dumps(_serve_one(model, default_alg, line, depth)))
        stdout.write("\n")
        stdout.flush()


def _serve_one(
    model: LoadedModel, default_alg: CombiningAlgorithm, line: str, depth: Optional[int]
) -> dict:
    req_id = ""
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("request must be a JSON object")
        raw_id = record.get("id")
        req_id = raw_id if isinstance(raw_id, str) else ""
        if not req_id:
            raise ValueError("missing or empty 'id'")
        names = {}
        for key in ("subject", "action", "object"):
            value = record.get(key)
            if not isinstance(value, str):
                raise ValueError(f"missing or non-string {key!r}")
            names[key] = value
        alg = default_alg
        if record.get("algorithm") is not None:
            alg = CombiningAlgorithm(record["algorithm"])
        q = _resolve_query(model, names["subject"], names["action"], names["object"])
        result = evaluate(model.policies, q, alg, depth=depth)
        return {
            "id": req_id,
            "decision": result.decision.value,
            "matching": [m.policy.name for m in result.matches],
            "error": None,
        }
    except (ValueError, RecursionError, _CliError, AbacError) as exc:
        return {
            "id": req_id,
            "decision": "Deny",
            "matching": [],
            "error": f"{exc}",
        }


def cmd_serve(args) -> int:
    model = _load(args.model)
    default_alg = CombiningAlgorithm(args.algorithm)
    serve_loop(model, default_alg, sys.stdin, sys.stdout, depth=args.depth)
    return EXIT_PERMIT


def _add_common(parser: argparse.ArgumentParser, with_query: bool) -> None:
    parser.add_argument("model", help="path to a .abac model file")
    if with_query:
        parser.add_argument("subject")
        parser.add_argument("action")
        parser.add_argument("object")
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHM_NAMES,
        default=CombiningAlgorithm.DENY_OVERRIDES.value,
    )
    parser.add_argument(
        "--depth", type=_depth, default=None, help="override the attribute depth bound"
    )


def _depth(text: str) -> int:
    depth = int(text)
    if depth < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {depth}")
    return depth


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphabac",
        description="Graph-based ABAC policy decision engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate one access query")
    _add_common(p, with_query=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("explain", help="evaluate and show matching detail")
    _add_common(p, with_query=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export-cypher", help="emit Neo4j Cypher scripts")
    _add_common(p, with_query=False)
    p.add_argument("--what", choices=("data", "policies", "query"), default="data")
    p.set_defaults(func=cmd_export_cypher)

    p = sub.add_parser("serve", help="JSON-lines decision service on stdio")
    _add_common(p, with_query=False)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"graphabac: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
