"""Command-line front end and line-delimited decision service.

Exit codes for ``check``: 0 Permit, 1 Deny, 2 usage or load error, so a
denied request is never conflated with an operational failure.  The
``serve`` loop is fail-closed: malformed or unresolvable requests get a
Deny response with an error message and processing continues.  ``serve``
reads at most ``MAX_REQUEST_CHARS`` characters of a request line; a longer
line gets one such Deny, and the rest of it is skipped unread.

A ``serve`` reply is one line of ASCII JSON, byte for byte what
``json.dumps`` writes for the response object with its default settings:

    {"id": "q1", "decision": "Permit", "matching": ["Policy2"], "error": null}

A Deny for a bad request has ``"matching": []`` and the error text as a
string, and an ``id`` of ``""`` when the request has no usable one.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Iterable, Iterator, Optional, TextIO

from .combine import ALGORITHM_NAMES, CombiningAlgorithm, combine, evaluate
from .dsl import LoadedModel, ModelLoadError, int_literal, load_model_file
from .errors import AbacError
from .matcher import AccessQuery, matches
from .policy import ConditionType, Decision, leaf_nodes

EXIT_PERMIT = 0
EXIT_DENY = 1
EXIT_ERROR = 2

# The longest request line, newline excluded, that ``serve`` reads.
MAX_REQUEST_CHARS = 1 << 16

# The whitespace of RFC 8259; ``str.strip()`` would also drop characters
# such as U+001C and U+3000, which are not JSON and must get a Deny.
_JSON_WHITESPACE = " \t\r\n"

class _CliError(Exception):
    pass


def _load_paused(path: str) -> LoadedModel:
    """``load_model_file(path)`` with the cyclic collector paused.  A model
    holds no cycles (tests/test_lifetime.py), and the collector's young and
    full collections would walk every object the load has made so far and
    free nothing.  Its state is restored whatever the load does."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return load_model_file(path)
    finally:
        if enabled:
            gc.enable()


def _load(path: str) -> LoadedModel:
    try:
        return _load_paused(path)
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
    return AccessQuery(*refs)


def cmd_check(args) -> int:
    model = _load(args.model)
    q = _resolve_query(model, args.subject, args.action, args.object)
    result = evaluate(model.policies, q, CombiningAlgorithm(args.algorithm), depth=args.depth)
    print(result.decision.value)
    return EXIT_PERMIT if result.decision is Decision.PERMIT else EXIT_DENY


def cmd_explain(args) -> int:
    model = _load(args.model)
    q = _resolve_query(model, args.subject, args.action, args.object)
    # One pass, as ``evaluate`` makes it, whose closures the report reuses.
    snapshot = model.policies.policies()
    depth = snapshot.attr_depth if args.depth is None else args.depth
    closures = snapshot.closures(q, depth)
    result = combine(matches(snapshot, closures, depth), CombiningAlgorithm(args.algorithm))
    print(f"query: subject={args.subject} action={args.action} object={args.object}")
    print(f"algorithm: {result.algorithm.value} (attribute depth {depth})")
    if not result.matches:
        print("no matching policies; default Deny")
    else:
        print("matching policies:")
        for m in result.matches:
            pol = m.policy
            slots = []
            # Slots, closures and lengths all come in slot order.  A slot lists
            # the condition nodes its length is taken over, each once.
            lengths = (m.len_sub, m.len_act, m.len_obj)
            for t, nodes, compiled, closure, length in zip(
                ConditionType, pol.nodes, pol.compound, closures, lengths
            ):
                reached = {*nodes, *leaf_nodes(compiled)}
                sats = sorted(model.graph.node(n).name for n in reached if n in closure)
                slots.append(f"{t.value}={length} [{', '.join(sats)}]")
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
        model = _load_paused(args.model)
    except ModelLoadError as exc:
        for err in exc.errors:
            print(f"{args.model}:{err}", file=sys.stderr)
        hard = any(e.kind in ("syntax", "graph") for e in exc.errors)
        return EXIT_ERROR if hard else EXIT_DENY
    except OSError as exc:
        raise _CliError(str(exc)) from exc
    for policy in model.policies:
        print(f"{policy.name}: valid")
    print(
        f"{len(model.policies)} policies valid; "
        f"attribute depth {model.graph.attr_depth}"
    )
    return EXIT_PERMIT


def cmd_export_cypher(args) -> int:
    # Imported here: no other command writes Cypher.
    from .cypher import emit_cypher_data, emit_cypher_decision_query, emit_cypher_policies

    model = _load(args.model)
    try:
        if args.what == "data":
            sys.stdout.write(emit_cypher_data(model.graph))
        elif args.what == "policies":
            sys.stdout.write(emit_cypher_policies(model.policies))
        else:
            depth = args.depth if args.depth is not None else model.graph.attr_depth
            alg = CombiningAlgorithm(args.algorithm)
            sys.stdout.write(emit_cypher_decision_query(alg, depth))
    except AbacError as exc:
        raise _CliError(str(exc)) from exc
    return EXIT_PERMIT


def request_lines(stream: TextIO) -> Iterator[str]:
    """The lines of ``stream``, each read with a bound: a line longer than
    MAX_REQUEST_CHARS comes out cut to MAX_REQUEST_CHARS + 1 characters, and
    the rest of it is skipped."""
    limit = MAX_REQUEST_CHARS + 1
    readline = stream.readline
    while line := readline(limit):
        if len(line) == limit and line[-1] != "\n":
            while (rest := readline(limit)) and rest[-1] != "\n":
                pass
        yield line


def serve_loop(
    model: LoadedModel,
    default_alg: CombiningAlgorithm,
    stdin: Iterable[str],
    stdout: TextIO,
    depth: Optional[int] = None,
) -> None:
    """One JSON request per input line, one JSON response per output line,
    in request order.  Never raises on malformed input.  A line of JSON
    whitespace alone (space, tab, CR, LF) gets no response; any other line
    gets exactly one, written whole and then flushed.  A line longer than
    MAX_REQUEST_CHARS gets a Deny; ``request_lines`` reads such a line
    without holding all of it."""
    write, flush = stdout.write, stdout.flush
    for line in stdin:
        if len(line) > MAX_REQUEST_CHARS and line[MAX_REQUEST_CHARS] != "\n":
            reply = _deny("", f"request line longer than {MAX_REQUEST_CHARS} characters")
        elif not line.strip(_JSON_WHITESPACE):
            continue
        else:
            reply = _serve_one(model, default_alg, line, depth)
        write(reply)
        flush()


# A reply is the line ``json.dumps(response) + "\n"`` would give, built
# from pre-quoted parts: json.dumps quotes a string with this function when
# ensure_ascii is on, its default.
_quote = json.encoder.encode_basestring_ascii

_ALGORITHMS = {a.value: a for a in CombiningAlgorithm}
_DECISIONS = {d: _quote(d.value) for d in Decision}


def _reply(req_id: str, decision: str, matching: str, error: str) -> str:
    """The finished reply line from its already quoted parts."""
    return (
        f'{{"id": {_quote(req_id)}, "decision": {decision}, "matching": [{matching}], '
        f'"error": {error}}}\n'
    )


def _deny(req_id: str, error: str) -> str:
    return _reply(req_id, _DECISIONS[Decision.DENY], "", _quote(error))


# json.loads' own decoder but for its integers, which it reads as the
# loader does, made once.
_DECODER = json.JSONDecoder(parse_int=int_literal)


def _serve_one(
    model: LoadedModel, default_alg: CombiningAlgorithm, line: str, depth: Optional[int]
) -> str:
    req_id = ""
    try:
        if line.startswith("\ufeff"):
            # As json.loads refuses a str that starts with a byte-order mark.
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        record = _DECODER.decode(line)
        if not isinstance(record, dict):
            raise ValueError("request must be a JSON object")
        raw_id = record.get("id")
        req_id = raw_id if isinstance(raw_id, str) else ""
        if not req_id:
            raise ValueError("missing or empty 'id'")
        names = []
        for key in ("subject", "action", "object"):
            value = record.get(key)
            if not isinstance(value, str):
                raise ValueError(f"missing or non-string {key!r}")
            names.append(value)
        name = record.get("algorithm")
        if name is None:
            alg = default_alg
        elif isinstance(name, str) and name in _ALGORITHMS:
            alg = _ALGORITHMS[name]
        else:
            # Raises the enum's own ValueError for any other value.
            alg = CombiningAlgorithm(name)
        q = _resolve_query(model, *names)
        result = evaluate(model.policies, q, alg, depth=depth)
    except (ValueError, RecursionError, _CliError, AbacError) as exc:
        return _deny(req_id, f"{exc}")
    matching = ", ".join([_quote(m.policy.name) for m in result.matches])
    return _reply(req_id, _DECISIONS[result.decision], matching, "null")


def cmd_serve(args) -> int:
    model = _load(args.model)
    default_alg = CombiningAlgorithm(args.algorithm)
    # Requests are UTF-8 JSON.  Bytes that do not decode become U+FFFD, so
    # their line fails as JSON and gets a Deny instead of ending the process.
    sys.stdin.reconfigure(encoding="utf-8", errors="replace")
    serve_loop(model, default_alg, request_lines(sys.stdin), sys.stdout, depth=args.depth)
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
    try:
        depth = int(text)
    except ValueError:
        depth = -1
    if depth < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
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
