"""Time `graphabac serve` round trips over a pipe, next to the pipe's floor.

Starts two children on the bundled healthcare model: `python3 -m graphabac
serve` and an echo child that answers each request line with one fixed
reply line, read and written the way `serve` reads and writes.  One
closed-loop client sends the serve-small request stream of
`bench/workloads.py` (5% malformed, an algorithm drawn per request) and
waits for each reply before sending the next.  Blocks of requests alternate
between the two children, so both see the same host speed.  Like
`bench/run.py`, the script pins itself and both children to one CPU.

Per child it reports the p50 and p90 round trip in microseconds, as
nearest-rank percentiles like `bench/run.py`'s, and the requests per
second (requests over their summed round-trip time).  The echo child is
the floor: what any line-for-line service costs over this
pipe from this client.  ``calib_ms`` is the mean of `bench/run.py`'s
host-speed loop timed before and after, so a later run can be scaled to
this one.  ``commit`` and ``src_sha256`` name the graphabac tree timed, as
`bench/run.py` prints them.

    PYTHONPATH=src python3 scripts/serve_sweep.py                 # 20 000 requests
    PYTHONPATH=src python3 scripts/serve_sweep.py --requests 500 --out -

The `serve` child imports graphabac from the same place as this script, so
pointing PYTHONPATH at another source tree times that tree's `serve`.  The
default run takes about 2 s on a 2-vCPU VM with CPython 3.11.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

import sweep_report  # first: it puts bench/ and tests/ on the import path
import workloads
from graphabac.dsl import bundled_model_text
from run import Serve, calib_ms, percentile, pin_to_one_cpu

# Requests per alternating block.
BLOCK = 500

# Reads each line as `serve` does (text stdin, one bounded readline per
# line) and writes one fixed reply with one write and one flush.
ECHO = """\
import sys
sys.stdin.reconfigure(encoding="utf-8", errors="replace")
readline, write, flush = sys.stdin.readline, sys.stdout.write, sys.stdout.flush
reply = '{"id": "", "decision": "Deny", "matching": [], "error": null}\\n'
while readline(65537):
    write(reply)
    flush()
"""


def summary(rtt_ns: list[int]) -> dict:
    us = sorted(ns / 1e3 for ns in rtt_ns)
    return {
        "requests": len(us),
        "us_p50": round(percentile(us, 50), 2),
        "us_p90": round(percentile(us, 90), 2),
        "rps": round(len(us) / (sum(rtt_ns) / 1e9)),
    }


def measure(requests: list, model_path: str, env: dict, warmup: int) -> dict:
    lines = [r.line.encode() + b"\n" for r in requests]
    calib = [calib_ms()]
    children = {
        "serve": Serve(["-m", "graphabac", "serve", model_path], env),
        "echo": Serve(["-c", ECHO], env),
    }
    rtt: dict[str, list[int]] = {name: [] for name in children}
    replies: dict[str, list[bytes]] = {name: [] for name in children}
    clock = time.perf_counter_ns
    try:
        for proc in children.values():
            for line in lines[:warmup]:
                if proc.ask(line) is None:
                    raise RuntimeError("a child stopped answering during warm-up")
        for start in range(0, len(lines), BLOCK):
            for name, proc in children.items():
                times, got = rtt[name], replies[name]
                for line in lines[start : start + BLOCK]:
                    t0 = clock()
                    reply = proc.ask(line)
                    times.append(clock() - t0)
                    if reply is None:
                        raise RuntimeError(f"{name} stopped answering")
                    got.append(reply)
    finally:
        for proc in children.values():
            proc.close()
    calib.append(calib_ms())
    # Checked after the timed loop, so the client does the same work per
    # request for both children.
    wrong = sum(
        json.loads(reply)["id"] not in ("", r.id) for r, reply in zip(requests, replies["serve"])
    )
    serve, echo = summary(rtt["serve"]), summary(rtt["echo"])
    return {
        "calib_ms": round(statistics.fmean(calib), 2),
        "serve": serve,
        "echo": echo,
        "serve_over_echo_us_p50": round(serve["us_p50"] - echo["us_p50"], 2),
        "replies_with_wrong_id": wrong,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--requests", type=int, default=20000, help="requests per child")
    ap.add_argument("--warmup", type=int, default=200, help="untimed requests per child")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_serve_sweep.json", help="path, or - for stdout")
    args = ap.parse_args(argv)

    cpu = pin_to_one_cpu()
    text = bundled_model_text()
    requests = workloads.serve_small(args.seed, text, args.requests).requests
    env = {**os.environ, "PYTHONPATH": sweep_report.SRC}
    with tempfile.TemporaryDirectory() as work:
        model_path = os.path.join(work, "healthcare.abac")
        with open(model_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        report = measure(requests, model_path, env, args.warmup)
    report = {
        **sweep_report.header("scripts/serve_sweep.py"),
        "seed": args.seed,
        "model": "bundled healthcare model, serve-small request stream",
        "block": BLOCK,
        "warmup": args.warmup,
        "pinned_cpu": cpu,
        **report,
    }
    serve, echo = report["serve"], report["echo"]
    print(
        f"serve p50 {serve['us_p50']} us, {serve['rps']} rps; "
        f"echo p50 {echo['us_p50']} us, {echo['rps']} rps",
        file=sys.stderr,
    )
    sweep_report.write(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
