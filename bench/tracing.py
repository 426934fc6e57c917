"""In-memory spans around the engine's public functions.

The engine has no tracing of its own, so the benchmark wraps the functions
it names, from outside, for the traced run only.  A span is
``[name, start_ns, end_ns, parent_index, request_id, count]``; ``count``
is a size taken from the result where one is given (closure nodes,
matches, deciding policies).  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Optional


def _n(result) -> int:
    return len(result)


def _deciding(result) -> int:
    return len(result.deciding_policies)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request_id: Optional[int] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function, including the names other engine
        modules bound at import (``combine.matching_policies``,
        ``cli.evaluate``)."""
        if self._saved:
            return
        mod = importlib.import_module
        dsl, graph, policy = mod("graphabac.dsl"), mod("graphabac.graph"), mod("graphabac.policy")
        matcher, combine, cli = mod("graphabac.matcher"), mod("graphabac.combine"), mod("graphabac.cli")
        matching = self.wrap("matcher.matching_policies", matcher.matching_policies, _n)
        evaluate = self.wrap("combine.evaluate", combine.evaluate)
        targets = [
            (dsl, "parse_model", self.wrap("dsl.parse_model", dsl.parse_model)),
            (dsl, "load_document", self.wrap("dsl.load_document", dsl.load_document)),
            (graph.Graph, "freeze", self.wrap("graph.freeze", graph.Graph.freeze)),
            (graph.Graph, "attribute_closure",
             self.wrap("graph.attribute_closure", graph.Graph.attribute_closure, _n)),
            (policy.PolicyStore, "create_policy",
             self.wrap("policy.create_policy", policy.PolicyStore.create_policy)),
            (policy.PolicyStore, "policies",
             self.wrap("policy.policies", policy.PolicyStore.policies)),
            (matcher, "matching_policies", matching),
            (combine, "matching_policies", matching),
            (combine, "combine", self.wrap("combine.combine", combine.combine, _deciding)),
            (combine, "evaluate", evaluate),
            (cli, "evaluate", evaluate),
            (cli, "serve_loop", self.wrap("cli.serve_loop", cli.serve_loop)),
        ]
        for owner, attr, wrapper in targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_ns(self) -> list[int]:
        """Self time of every span, by span index."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")
