#!/usr/bin/env python3
"""Decision benchmark for graphabac: in-process `evaluate` and `graphabac serve`
over a pipe, on one seeded workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload policy-scan --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
run that wraps the engine's public functions and prints per-layer metrics.
Every answer, in-process or served, is checked against bench/reference.py
outside the timed regions.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Optional

import workloads
from reference import Reference
from tracing import Tracer

SETUP_SPAWNS = 3  # serve start-ups per run; setup_s is their median
# The tail metrics are p90.  At least this many samples per run leave at
# least ten above it.
TAIL_P = 90
MIN_SAMPLES = 100
BLOCK_S = 0.1
# Timed samples are scaled to a host on which one HostSpeed probe takes
# REF_PROBE_MS; see "Host speed" in NOTES.md.
REF_PROBE_MS = 5.0
# A block counts only if the probes before and after it agree within this
# ratio; otherwise the host changed speed during it and no scale fits.
STEADY_RATIO = 1.15
REPLY_TIMEOUT_S = 30.0
WORK_DIR = ".bench_work"


class Failure(Exception):
    pass


# -- measurement helpers ----------------------------------------------


def calib_ms() -> float:
    """A fixed stdlib loop; its time shows how fast the host ran."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i & 7
    return (time.perf_counter() - t0) * 1e3


class _Item:
    __slots__ = ("refs",)

    def __init__(self, refs: tuple) -> None:
        self.refs = refs


class HostSpeed:
    """A fixed scan shaped like the engine's policy scan: attribute reads,
    a generator per item and dict lookups of objects scattered in memory.
    Its time, taken next to the engine's, tracks how fast the host runs
    that kind of code at that moment."""

    def __init__(self) -> None:
        rng = random.Random(0)
        keys = [object() for _ in range(50_000)]
        self.items = [_Item(tuple(rng.sample(keys, 3))) for _ in range(5_000)]
        self.closure = {k: i for i, k in enumerate(rng.sample(keys, 500))}

    def probe_ms(self) -> float:
        closure = self.closure
        t0 = time.perf_counter_ns()
        hits = 0
        for item in self.items:
            if any(r in closure for r in item.refs):
                hits += 1
        return (time.perf_counter_ns() - t0) / 1e6


def pin_to_one_cpu() -> int:
    """Keep this process, and the `serve` children it starts, on one CPU.

    The client and `serve` take turns in a closed loop, so one CPU is all
    they use; on one CPU a round trip never waits for a wake-up on another
    CPU, and the HostSpeed probe runs where the engine runs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(sorted_vals: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(p / 100 * len(sorted_vals)) - 1)]


def describe(sorted_vals: list, unit: str) -> str:
    """Sample count and percentiles, up to the highest of p99/p99.9 that has
    at least ten samples above it."""
    n = len(sorted_vals)
    shown = [p for p in (50, 90, 99, 99.9) if p <= 90 or n - math.ceil(p / 100 * n) >= 10]
    return f"n={n} " + " ".join(f"p{p}={percentile(sorted_vals, p):.4f}" for p in shown) + f" {unit}"


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith((".py", ".abac")):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit_id(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return out.stdout.strip() if out.returncode == 0 else "n/a"


# -- the serve process ------------------------------------------------


class Serve:
    """One `graphabac serve` child, driven by a single closed-loop client."""

    def __init__(self, args: list[str], env: dict) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, bufsize=0,
        )
        self._buf = b""

    def ask(self, line: bytes, timeout: float = REPLY_TIMEOUT_S) -> Optional[bytes]:
        """Send one request line and wait for one response line; None when
        the process closed its output, died or did not answer in time."""
        try:
            view = memoryview(line)
            while view:
                view = view[os.write(self.proc.stdin.fileno(), view):]
        except BrokenPipeError:
            return None
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        reply, _, self._buf = self._buf.partition(b"\n")
        return reply

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024
        raise Failure("VmHWM missing from /proc status")

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- checking ---------------------------------------------------------


def served_ok(req: workloads.Request, reply: Optional[bytes], ref: Reference) -> bool:
    if reply is None:
        return False
    try:
        rec = json.loads(reply)
    except ValueError:
        return False
    if not isinstance(rec, dict):
        return False
    if req.query is None:
        want_id = "" if req.kind == "bad-json" else req.id
        return rec.get("id") == want_id and rec.get("decision") == "Deny" and rec.get("error") is not None
    decision, names = ref.decide(*req.query)
    return (
        rec.get("id") == req.id
        and rec.get("decision") == decision
        and rec.get("matching") == list(names)
        and rec.get("error") is None
    )


class Tally:
    """Attempted and failed answers, in-process and served."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.kinds: dict[str, int] = {}

    def add(self, ok: bool, kind: str = "valid") -> None:
        self.attempted += 1
        self.failed += not ok
        self.kinds[kind] = self.kinds.get(kind, 0) + 1


# -- phases -----------------------------------------------------------


class Bench:
    def __init__(self, wl: workloads.Workload, ref: Reference, model_path: str, env: dict):
        self.wl = wl
        self.ref = ref
        self.model_path = model_path
        self.env = env
        self.tally = Tally()
        self.valid = [i for i, r in enumerate(wl.requests) if r.query is not None]
        self.decided_ids: list[int] = []  # requests answered in process and checked
        self.combine = importlib.import_module("graphabac.combine")
        self.cli = importlib.import_module("graphabac.cli")
        self.dsl = importlib.import_module("graphabac.dsl")
        self.access_query = importlib.import_module("graphabac.matcher").AccessQuery
        self._default_alg = self.combine.CombiningAlgorithm.DENY_OVERRIDES
        self._lines = [(r.line + "\n").encode() for r in wl.requests]
        self.model = None
        self._queries: list = []
        # Answers not yet checked, and where each closed loop goes on from;
        # request 0 goes out during each `serve` set-up.
        self._pending_decided: list[tuple[int, str, tuple]] = []
        self._pending_served: list[tuple[int, Optional[bytes]]] = []
        self._next_decide, self._next_serve = 0, 1

    def load(self) -> None:
        self.model = self.dsl.load_model_file(self.model_path)
        if len(self.model.policies) != len(self.wl.spec.policies):
            raise Failure("engine loaded a different number of policies")
        graph = self.model.graph
        alg = self.combine.CombiningAlgorithm
        self._queries = []
        for i in self.valid:
            s, a, o, name = self.wl.requests[i].query
            q = self.access_query(graph.find_node(s), graph.find_node(a), graph.find_node(o))
            self._queries.append((i, q, alg(name)))

    def warm_up(self) -> None:
        for _, q, alg in self._queries[:5]:
            self.combine.evaluate(self.model.policies, q, alg)

    def decide(self, seconds: float, tracer: Optional[Tracer] = None) -> list[int]:
        """Closed-loop in-process `evaluate` for ``seconds``, going on through
        the requests from where the last call stopped.  Returns latencies in
        ns; `check` compares the answers with the reference later."""
        queries = self._queries
        store = self.model.policies
        evaluate = self.combine.evaluate
        lat, answers = [], self._pending_decided
        clock = time.perf_counter_ns
        end = clock() + int(seconds * 1e9)
        k = self._next_decide
        while True:
            i, q, alg = queries[k % len(queries)]
            if tracer is not None:
                tracer.request_id = i
            t0 = clock()
            res = evaluate(store, q, alg)
            t1 = clock()
            lat.append(t1 - t0)
            answers.append((i, res.decision.value, tuple(m.policy.name for m in res.matches)))
            k += 1
            if t1 >= end:
                break
        self._next_decide = k
        return lat

    def serve_in_process(self, seconds: float, tracer: Tracer) -> int:
        """Traced `serve_loop` calls over io.StringIO, one request each, for
        ``seconds``.  Returns the number of error responses."""
        reqs = self.wl.requests
        end = time.perf_counter() + seconds
        replies = []
        k = 0
        while time.perf_counter() < end:
            i = k % len(reqs)
            src, out = io.StringIO(reqs[i].line + "\n"), io.StringIO()
            tracer.request_id = i
            self.cli.serve_loop(self.model, self._default_alg, src, out)
            replies.append((i, out.getvalue().splitlines()))
            k += 1
        errors = 0
        for i, lines in replies:
            ok = len(lines) == 1 and served_ok(reqs[i], lines[0].encode(), self.ref)
            self.tally.add(ok, reqs[i].kind)
            errors += ok and json.loads(lines[0])["error"] is not None
        return errors

    def spawn(self, args: Optional[list[str]] = None) -> tuple[Serve, float]:
        """Start `graphabac serve` (or ``args``), send the first request, and
        time until its reply."""
        proc = Serve(args or ["-m", "graphabac", "serve", self.model_path], self.env)
        try:
            reply = proc.ask(self._lines[0])
            took = time.perf_counter() - proc.started
            if reply is None:
                raise Failure("serve gave no first response")
        except BaseException:
            proc.close()
            raise
        req = self.wl.requests[0]
        self.tally.add(served_ok(req, reply, self.ref), req.kind)
        return proc, took

    def serve_pipe(self, proc: Serve, seconds: float) -> Optional[list[int]]:
        """Closed loop through the pipe for ``seconds``, going on through the
        requests from where the last call stopped.  Returns round-trip times
        in ns, or None once `serve` stops answering; `check` compares the
        replies with the reference later."""
        reqs = self.wl.requests
        clock = time.perf_counter_ns
        end = clock() + int(seconds * 1e9)
        rtt, replies = [], self._pending_served
        k = self._next_serve
        while True:
            i = k % len(reqs)
            t0 = clock()
            reply = proc.ask(self._lines[i])
            t1 = clock()
            replies.append((i, reply))
            k += 1
            if reply is None:
                return None
            rtt.append(t1 - t0)
            if t1 >= end:
                break
        self._next_serve = k
        return rtt

    def check(self) -> list[bool]:
        """Tally every answer not yet checked; returns whether each served
        reply among them was correct, in order."""
        reqs = self.wl.requests
        for i, decision, names in self._pending_decided:
            self.tally.add(self.ref.decide(*reqs[i].query) == (decision, names))
            self.decided_ids.append(i)
        served = []
        for i, reply in self._pending_served:
            served.append(served_ok(reqs[i], reply, self.ref))
            self.tally.add(served[-1], reqs[i].kind)
        self._pending_decided, self._pending_served = [], []
        return served

    def properties(self) -> dict:
        """Measured properties of the requests this run answered."""
        reqs = self.wl.requests
        decided = [reqs[i].query for i in self.decided_ids]
        answers = [self.ref.decide(*q) for q in decided]
        n = max(1, len(answers))
        closure = [len(self.ref.reach(x)) for q in decided for x in q[:3]]
        spec = self.wl.spec
        served = sum(self.tally.kinds.values()) - len(decided)
        malformed = sum(v for k, v in self.tally.kinds.items() if k != "valid")
        return {
            "hit_share": sum(bool(names) for _, names in answers) / n,
            "permit_share": sum(d == "Permit" for d, _ in answers) / n,
            "deny_share": sum(d == "Deny" for d, _ in answers) / n,
            "matches_per_query": sum(len(names) for _, names in answers) / n,
            "policies": len(spec.policies),
            "compound_share": sum(p.is_compound() for p in spec.policies) / max(1, len(spec.policies)),
            "mean_closure": statistics.fmean(closure) if closure else 0.0,
            "malformed_share": malformed / max(1, served),
            "nodes": len(spec.nodes),
            "has_attr_edges": sum(r == workloads.HAS_ATTR for _, r, _ in spec.edges),
            "depth": self.ref.depth,
        }


def _ms(ns) -> list[float]:
    return sorted(v / 1e6 for v in ns)


def _us(ns) -> list[float]:
    return sorted(v / 1e3 for v in ns)


def end_to_end(bench: Bench, seconds: float, notes: list[str]) -> dict:
    """Start `serve` SETUP_SPAWNS times.  After each start, run an equal share
    of the measurement against that process, so the start-ups and the
    measurement are both spread over the whole run.

    The two closed loops alternate in short blocks, with a HostSpeed probe
    between blocks.  Each block's samples are scaled by REF_PROBE_MS over
    the mean of the two probes around it, which takes out the host's speed
    at that moment."""
    host = HostSpeed()
    setups, rss, probes = [], [], []
    # (ns samples, scale to ref-ms, whether the host held its speed)
    lat_blocks: list[tuple[list[int], float, bool]] = []
    rtt_blocks: list[tuple[list[int], float, bool]] = []
    served: list[bool] = []
    got: Optional[list[int]] = []

    def scale(before: float) -> tuple[float, bool, float]:
        after = host.probe_ms()
        probes.append(after)
        steady = max(before, after) <= STEADY_RATIO * min(before, after)
        return REF_PROBE_MS / ((before + after) / 2), steady, after

    def counted(blocks: list) -> int:
        return sum(len(got) for got, _, steady in blocks if steady)

    for n in range(SETUP_SPAWNS):
        proc, took = bench.spawn()
        setups.append(took)
        try:
            if n == 0:
                bench.load()
                bench.warm_up()
            last = n == SETUP_SPAWNS - 1
            end = time.perf_counter() + seconds / SETUP_SPAWNS
            # The last third runs on, up to `seconds` more, until each loop
            # has MIN_SAMPLES counted samples.
            cap = end + seconds
            probe = host.probe_ms()
            while time.perf_counter() < end or (
                last and time.perf_counter() < cap
                and min(counted(lat_blocks), counted(rtt_blocks)) < MIN_SAMPLES
            ):
                lat = bench.decide(BLOCK_S)
                k, steady, probe = scale(probe)
                lat_blocks.append((lat, k, steady))
                got = bench.serve_pipe(proc, BLOCK_S)
                if got is None:
                    break
                k, steady, probe = scale(probe)
                rtt_blocks.append((got, k, steady))
            rss.append(proc.peak_rss_mb())
        finally:
            proc.close()
        served += bench.check()
        if got is None:
            notes.append("serve stopped answering")
            break
    if not rtt_blocks:
        raise Failure("serve answered no request")
    if not counted(lat_blocks) or not counted(rtt_blocks):
        raise Failure("the host changed speed during every block")
    # Throughput per block, so that a stall of the host weighs on one block
    # rather than on the whole run.
    rps, raw_rps, lo = [], [], 0
    for got, k, steady in rtt_blocks:
        ok = sum(served[lo:lo + len(got)])
        lo += len(got)
        if steady:
            raw_rps.append(ok / (sum(got) / 1e9))
            rps.append(raw_rps[-1] / k)
    blocks = (len(lat_blocks), len(rtt_blocks))
    lat_blocks = [b for b in lat_blocks if b[2]]
    rtt_blocks = [b for b in rtt_blocks if b[2]]
    lat = sorted(v / 1e6 * k for got, k, _ in lat_blocks for v in got)
    rtt = sorted(v / 1e6 * k for got, k, _ in rtt_blocks for v in got)
    probes.sort()
    notes.append(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setups)}")
    notes.append(f"serve peak RSS MB: {' '.join(f'{m:.2f}' for m in rss)}")
    notes.append(f"host speed probe ms: n={len(probes)} p10={percentile(probes, 10):.3f} "
                 f"p50={percentile(probes, 50):.3f} p90={percentile(probes, 90):.3f}; "
                 f"steady blocks: decide {len(lat_blocks)} of {blocks[0]}, "
                 f"serve {len(rtt_blocks)} of {blocks[1]}")
    notes.append("decide: " + describe(lat, "ref-ms"))
    notes.append("decide raw: " + describe(_ms(v for got, _, _ in lat_blocks for v in got), "ms"))
    notes.append("serve: " + describe(rtt, "ref-ms"))
    notes.append("serve raw: " + describe(_ms(v for got, _, _ in rtt_blocks for v in got), "ms"))
    notes.append(f"serve_rps raw: median over {len(raw_rps)} blocks {statistics.median(raw_rps):.2f}/s")
    t = bench.tally
    return {
        "setup_s": (statistics.median(setups), "s"),
        "decide_p50_ref_ms": (statistics.median(lat), "ref-ms"),
        "decide_tail_ref_ms": (percentile(lat, TAIL_P), "ref-ms"),
        "serve_ref_rps": (statistics.median(rps), "1/ref-s"),
        "serve_p50_ref_ms": (statistics.median(rtt), "ref-ms"),
        "serve_tail_ref_ms": (percentile(rtt, TAIL_P), "ref-ms"),
        "serve_rss_mb": (statistics.median(rss), "MB"),
        "correct_frac": ((t.attempted - t.failed) / t.attempted, "share"),
    }


def per_layer(bench: Bench, seconds: float, notes: list[str], spans_path: str) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        bench.load()
    finally:
        tracer.uninstall()
    bench.warm_up()
    phase = seconds / 5
    # Untraced and traced `evaluate` in alternating blocks, so that
    # trace.overhead_frac compares the two at the same host speed.
    first_decide = len(tracer.spans)
    plain_ns, traced_ns = [], []
    end = time.perf_counter() + 2 * phase
    while time.perf_counter() < end:
        plain_ns += bench.decide(BLOCK_S)
        tracer.install()
        try:
            traced_ns += bench.decide(BLOCK_S, tracer)
        finally:
            tracer.uninstall()
    first_serve = len(tracer.spans)
    tracer.install()
    try:
        errors = bench.serve_in_process(phase, tracer)
    finally:
        tracer.uninstall()
        tracer.request_id = None
    times_path = os.path.join(os.path.dirname(bench.model_path), "serve_times")
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_timed.py")
    proc, _ = bench.spawn([child, bench.model_path, times_path])
    try:
        rtt_ns = bench.serve_pipe(proc, 2 * phase)
    finally:
        proc.close()
    if rtt_ns is None:
        raise Failure("serve_timed.py stopped answering")
    bench.check()
    with open(times_path, encoding="ascii") as fh:
        # Skip the set-up request; the rest pair with rtt_ns in order.
        inside = [tuple(map(int, row.split())) for row in fh][1:]
    tracer.write(spans_path)
    plain, traced = _us(plain_ns), _us(traced_ns)

    own = tracer.self_ns()
    def dur(span: list) -> int:
        return span[2] - span[1]

    def in_range(name: str, lo: int, hi: int) -> list[tuple[int, list]]:
        return [(i, s) for i, s in enumerate(tracer.spans[lo:hi], lo) if s[0] == name]

    def load_s(name: str) -> float:
        return sum(dur(s) for _, s in in_range(name, 0, first_decide)) / 1e9

    end = len(tracer.spans)
    evals = in_range("combine.evaluate", first_decide, first_serve)
    closures = in_range("graph.attribute_closure", first_decide, first_serve)
    matchers = in_range("matcher.matching_policies", first_decide, first_serve)
    combines = in_range("combine.combine", first_decide, first_serve)
    iters = in_range("policy.policies", first_decide, first_serve)
    loops = in_range("cli.serve_loop", first_serve, end)
    n_dec = max(1, len(evals))
    eval_ns = sum(dur(s) for _, s in evals) or 1
    matcher_self = _us(own[i] for i, _ in matchers)
    loop_self = _us(own[i] for i, _ in loops)
    rtt_us = _us(rtt_ns)
    matches = sum(s[5] for _, s in matchers) / n_dec
    cli_self = statistics.median(loop_self)
    if len(inside) != len(rtt_ns):
        raise Failure("serve_timed.py recorded a different number of requests")
    pipe = statistics.median((r - t) / 1e3 for r, (t, _) in zip(rtt_ns, inside))
    outside_evaluate = sum(r - e for r, (_, e) in zip(rtt_ns, inside)) / sum(rtt_ns)
    notes.append(f"traced decisions={len(evals)} traced serve_loop calls={len(loops)} pipe requests={len(rtt_us)}")
    notes.append("matcher self time: " + describe(matcher_self, "us"))
    notes.append(f"spans written: {len(tracer.spans)} to {spans_path}")
    load = in_range("dsl.load_document", 0, first_decide)
    return {
        "dsl.parse_s": (load_s("dsl.parse_model"), "s"),
        "dsl.load_s": (sum(own[i] for i, _ in load) / 1e9, "s"),
        "graph.freeze_s": (load_s("graph.freeze"), "s"),
        "policy.create_s": (load_s("policy.create_policy"), "s"),
        "graph.closure_us_p50": (statistics.median(_us(dur(s) for _, s in closures)), "us"),
        "graph.closure_calls_per_decision": (len(closures) / n_dec, "count"),
        "graph.closure_nodes_mean": (statistics.fmean(s[5] for _, s in closures), "count"),
        "graph.closure_frac": (sum(dur(s) for _, s in closures) / eval_ns, "share"),
        "policy.store_iter_us": (statistics.median(_us(dur(s) for _, s in iters)), "us"),
        "matcher.self_us_p50": (statistics.median(matcher_self), "us"),
        "matcher.self_us_tail": (percentile(matcher_self, TAIL_P), "us"),
        "matcher.self_frac": (sum(own[i] for i, _ in matchers) / eval_ns, "share"),
        "matcher.matches_per_decision": (matches, "count"),
        "matcher.match_ratio": (matches / max(1, len(bench.wl.spec.policies)), "share"),
        "combine.us_p50": (statistics.median(_us(dur(s) for _, s in combines)), "us"),
        "combine.deciding_per_decision": (sum(s[5] for _, s in combines) / n_dec, "count"),
        "cli.serve_self_us_p50": (cli_self, "us"),
        "cli.pipe_us_p50": (pipe, "us"),
        "cli.round_trip_frac": (outside_evaluate, "share"),
        "cli.error_responses": (errors, "count"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1, "share"),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "graphabac", "__init__.py")):
        print("bench: run from a source checkout; src/graphabac is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import graphabac

    if not os.path.realpath(graphabac.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"bench: imported graphabac from {graphabac.__file__}, not {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    calib = [calib_ms()]
    with open(os.path.join(src, "graphabac", "data", "healthcare.abac"), encoding="utf-8") as fh:
        healthcare = fh.read()
    wl = workloads.build(args.workload, args.seed, healthcare)
    ref = Reference(wl.spec)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    notes: list[str] = []
    try:
        model_path = os.path.join(tmp, "model.abac")
        with open(model_path, "w", encoding="utf-8") as fh:
            fh.write(wl.model_text)
        bench = Bench(wl, ref, model_path, env)
        if args.trace:
            spans = os.path.join(root, WORK_DIR, f"spans-{args.workload}.jsonl")
            metrics = per_layer(bench, args.seconds, notes, spans)
        else:
            metrics = end_to_end(bench, args.seconds, notes)
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    calib.append(calib_ms())
    if args.trace:
        metrics["machine.calib_ms"] = (statistics.fmean(calib), "ms")

    t = bench.tally
    props = bench.properties()
    print(
        f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} commit={commit_id(root)} src_sha256={source_digest(src)} "
        f"python={platform.python_version()} nproc={nproc} pinned_cpu={cpu}"
    )
    print(f"# machine.calib_ms: start={calib[0]:.2f} end={calib[1]:.2f}")
    print("# workload: " + " ".join(
        f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in props.items()
    ))
    print(f"# answers: attempted={t.attempted} failed={t.failed} "
          f"failed_frac={t.failed / t.attempted:.6f} by kind {t.kinds}")
    for line in notes:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
