"""Sweep `evaluate` time over the number of stored policies.

Builds one random model per policy count with `tests/randmodel.py`, on the
graph shape of the desk-scale acceptance test (2000 primitives and 8000
attributes in 5 layers, edge factor 3.2: 10k nodes, ~30k HAS_ATTR edges,
attribute depth 5).  The seed fixes the graph, so every size shares it and
only the policies differ.  Queries are timed through `evaluate`
(deny-overrides), and the median and p90 per size are written as JSON with
the seed, the scale and the machine.

Uniform random queries almost never satisfy all three slots of a policy, so
every second query is built to match one: a stored policy is drawn and each
slot gets a primitive whose closure holds all of that slot's conditions.
The uniform half is the same at every size; the matching half is drawn from
each size's own policies.  ``model_traced_mib`` is the memory the built
model holds, graph and store before any snapshot, by tracemalloc, and
``snapshot_traced_mib`` what building ``store.policies()`` over it adds.
Both are taken in a build of their own, in a fresh interpreter, after the
size's timings and ``peak_rss_mb``, so that ``build_s`` and the query
timings run untraced and no size's reading depends on the sizes before
it.  ``calib_ms`` is the mean of `bench/run.py`'s host-speed loop timed
before and after the sweep, so a later run can be scaled to this one.

    PYTHONPATH=src python3 scripts/policy_sweep.py            # 1k, 10k, 100k
    PYTHONPATH=src python3 scripts/policy_sweep.py --sizes 1000 10000 --out -

The default sizes take about 70 s on a 2-vCPU VM with CPython 3.11, most
of it the traced build of the 100k-policy model.  That build's process
peaks at about 140 MB RSS; the untraced build, whose peak ``peak_rss_mb``
reports, at about 85 MB.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import time
import tracemalloc

from graphabac import CombiningAlgorithm, HAS_ATTR, evaluate

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]
from randmodel import (  # noqa: E402
    RandomModel,
    RandomModelConfig,
    matching_query,
    primitives_reaching,
    random_model,
    random_query,
)
from run import calib_ms  # noqa: E402

GRAPH_SHAPE = dict(n_primitives=2000, n_attributes=8000, n_layers=5, edge_factor=3.2)


def build(n_policies: int, seed: int) -> RandomModel:
    config = RandomModelConfig(n_policies=n_policies, **GRAPH_SHAPE)
    return random_model(random.Random(seed), config)


def traced_mib(n_policies: int, seed: int) -> dict:
    """The tracemalloc sizes of one built model, graph and store, and of the
    snapshot ``store.policies()`` then builds over it."""
    tracemalloc.start()
    model = build(n_policies, seed)
    model_size = tracemalloc.get_traced_memory()[0]
    model.policies.policies()
    snapshot_size = tracemalloc.get_traced_memory()[0] - model_size
    tracemalloc.stop()
    return {
        "model_traced_mib": round(model_size / 2**20, 2),
        "snapshot_traced_mib": round(snapshot_size / 2**20, 2),
    }


def measure(n_policies: int, seed: int, n_queries: int, warmup: int) -> dict:
    t0 = time.perf_counter()
    model = build(n_policies, seed)
    build_s = time.perf_counter() - t0
    g = model.graph
    reached_by = primitives_reaching(model)
    qrng = random.Random(seed + 1)
    queries = [
        matching_query(qrng, model, reached_by) if i % 2 else random_query(qrng, model)
        for i in range(n_queries)
    ]
    store, alg = model.policies, CombiningAlgorithm.DENY_OVERRIDES
    for q in queries[:warmup]:
        evaluate(store, q, alg)
    timings, matches = [], 0
    gc.collect()
    for q in queries:
        t = time.perf_counter_ns()
        result = evaluate(store, q, alg)
        timings.append(time.perf_counter_ns() - t)
        matches += len(result.matches)
    ms = sorted(ns / 1e6 for ns in timings)
    return {
        "policies": len(store),
        "nodes": g.node_count(),
        "has_attr_edges": g.edge_count(HAS_ATTR),
        "attr_depth": g.attr_depth,
        "queries": len(queries),
        "evaluate_ms_p50": round(statistics.median(ms), 4),
        "evaluate_ms_p90": round(ms[int(0.9 * len(ms))], 4),
        "matches_per_query": round(matches / len(queries), 3),
        "build_s": round(build_s, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[1000, 10000, 100000])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--queries", type=int, default=500)
    ap.add_argument("--warmup", type=int, default=50)
    ap.add_argument("--out", default="BENCH_policy_sweep.json", help="path, or - for stdout")
    args = ap.parse_args(argv)

    calib = [calib_ms()]
    rows = []
    for n in args.sizes:
        row = measure(n, args.seed, args.queries, args.warmup)
        # A new interpreter per size, so what an earlier size left behind
        # (interned strings, free lists, caches) does not move its sizes.
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            row.update(pool.apply(traced_mib, (n, args.seed)))
        print(f"{n:>7} policies: evaluate p50 {row['evaluate_ms_p50']:.3f} ms", file=sys.stderr)
        rows.append(row)
    calib.append(calib_ms())
    first, last = rows[0], rows[-1]
    report = {
        "script": "scripts/policy_sweep.py",
        "seed": args.seed,
        "graph_shape": GRAPH_SHAPE,
        "algorithm": CombiningAlgorithm.DENY_OVERRIDES.value,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "calib_ms": round(statistics.fmean(calib), 2),
        "sizes": rows,
        "policy_ratio": last["policies"] / first["policies"],
        "p50_ratio": round(last["evaluate_ms_p50"] / first["evaluate_ms_p50"], 2),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
