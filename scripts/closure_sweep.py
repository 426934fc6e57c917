"""Sweep attribute-closure time over attribute depth and condition-node share.

Builds one random graph per attribute depth with `tests/randmodel.py`
(1000 primitives and 10000 attributes in as many layers as the depth, edge
factor 6: 11k nodes and ~66k distinct HAS_ATTR edges, about the size of the
graph-deep benchmark workload).  For each condition-node share it fills a
fresh `PolicyStore` on that graph with simple policies whose conditions are
distinct attribute nodes drawn uniformly, until that share of all nodes are
condition nodes.  Then, for the same sample of primitives, it times two
closures in turns, start by start:

- the full closure: `Graph.attribute_closure(p, depth)` over the whole graph;
- the trimmed closure: the same call over the `adjacency` of the store's
  snapshot (`PolicyStore.policies()`), which is what
  `matcher.query_closures` walks.

It records their median and p90 in microseconds, the mean node counts, the
condition nodes each start reaches, the build time of the snapshot that
holds the trimmed copy, with its key index, and the kept share of the copy.
A check that both closures agree at every condition node runs
outside the timed region.

    PYTHONPATH=src python3 scripts/closure_sweep.py
    PYTHONPATH=src python3 scripts/closure_sweep.py --depths 5 8 --shares 0.1 --out -

The default sweep takes about 6 s and peaks at about 80 MB RSS on a 2-vCPU
VM with CPython 3.11.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

from graphabac import HAS_ATTR, Graph
from graphabac.graph import Adjacency
from graphabac.policy import ConditionType, Decision, PolicyStore, Ref

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from randmodel import RandomModelConfig, random_model  # noqa: E402

N_PRIMITIVES = 1000
N_ATTRIBUTES = 10000
EDGE_FACTOR = 6.0


def fill_store(
    store: PolicyStore, attributes: list[int], n_conditions: int, rng: random.Random
) -> None:
    """Simple policies, one condition per slot, over ``n_conditions`` distinct
    attribute nodes."""
    picks = rng.sample(attributes, n_conditions)
    slots = tuple(ConditionType)
    for i in range(0, len(picks), len(slots)):
        nodes = picks[i : i + len(slots)]
        nodes += rng.sample(picks, len(slots) - len(nodes))
        conditions = {t: {Ref(n)} for t, n in zip(slots, nodes)}
        store.create_policy(f"p{i}", Decision.PERMIT, conditions)


def timed_us(g: Graph, starts: list[int], adjacency: Adjacency) -> tuple[list[float], list[float]]:
    """Full and trimmed closure times per start, taken in turns so that a
    slow spell of the host falls on both."""
    full, trimmed = [], []
    for s in starts:
        for adj, out in ((None, full), (adjacency, trimmed)):
            t = time.perf_counter_ns()
            g.attribute_closure(s, g.attr_depth, adj)
            out.append((time.perf_counter_ns() - t) / 1e3)
    return sorted(full), sorted(trimmed)


def measure(depth: int, shares: list[float], seed: int, n_starts: int) -> list[dict]:
    rng = random.Random(seed)
    cfg = RandomModelConfig(
        n_primitives=N_PRIMITIVES,
        n_attributes=N_ATTRIBUTES,
        n_layers=depth,
        edge_factor=EDGE_FACTOR,
        n_policies=0,
    )
    model = random_model(rng, cfg)
    g = model.graph
    primitives = set(model.primitives)
    attributes = [n for n in range(g.node_count()) if n not in primitives]
    starts = rng.sample(model.primitives, n_starts)
    full = {s: g.attribute_closure(s, g.attr_depth) for s in starts}
    rows = []
    for share in shares:
        store = PolicyStore(g)
        fill_store(store, attributes, round(share * g.node_count()), rng)
        conditions = {
            e.node for p in store.policies() for exprs in p.conditions.values() for e in exprs
        }
        t = time.perf_counter()
        adjacency = store.policies().adjacency
        trim_ms = (time.perf_counter() - t) * 1e3
        trimmed = {s: g.attribute_closure(s, g.attr_depth, adjacency) for s in starts}
        for s in starts:
            for c in conditions:
                if trimmed[s].get(c) != full[s].get(c):
                    raise AssertionError(f"closures disagree at node {c} from {s}")
        gc.collect()
        full_us, trimmed_us = timed_us(g, starts, adjacency)
        kept = sum(1 for n, children in enumerate(adjacency) if children or n in conditions)
        rows.append(
            {
                "attr_depth": g.attr_depth,
                "nodes": g.node_count(),
                "has_attr_edges": g.edge_count(HAS_ATTR),
                "condition_nodes": len(conditions),
                "condition_share": round(len(conditions) / g.node_count(), 4),
                "policies": len(store),
                "starts": len(starts),
                "full_us_p50": round(statistics.median(full_us), 1),
                "full_us_p90": round(full_us[int(0.9 * len(full_us))], 1),
                "full_nodes_mean": round(statistics.fmean(map(len, full.values())), 1),
                "trimmed_us_p50": round(statistics.median(trimmed_us), 1),
                "trimmed_us_p90": round(trimmed_us[int(0.9 * len(trimmed_us))], 1),
                "trimmed_nodes_mean": round(statistics.fmean(map(len, trimmed.values())), 1),
                "conditions_reached_mean": round(
                    statistics.fmean(len(conditions & c.keys()) for c in full.values()), 1
                ),
                "p50_ratio": round(statistics.median(trimmed_us) / statistics.median(full_us), 3),
                "trim_ms": round(trim_ms, 1),
                "nodes_kept_share": round(kept / g.node_count(), 4),
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--depths", type=int, nargs="+", default=[5, 8, 12])
    ap.add_argument("--shares", type=float, nargs="+", default=[0.02, 0.1, 0.5])
    ap.add_argument("--seed", type=int, default=8)
    ap.add_argument("--starts", type=int, default=300, help="primitives timed per point")
    ap.add_argument("--out", default="BENCH_closure_sweep.json", help="path, or - for stdout")
    args = ap.parse_args(argv)

    rows = []
    for depth in args.depths:
        for row in measure(depth, args.shares, args.seed, args.starts):
            print(
                f"depth {row['attr_depth']:>2} share {row['condition_share']:.2f}: "
                f"full {row['full_us_p50']:.0f} us / {row['full_nodes_mean']:.0f} nodes, "
                f"trimmed {row['trimmed_us_p50']:.0f} us / {row['trimmed_nodes_mean']:.0f} nodes",
                file=sys.stderr,
            )
            rows.append(row)
    report = {
        "script": "scripts/closure_sweep.py",
        "seed": args.seed,
        "graph_shape": {
            "n_primitives": N_PRIMITIVES,
            "n_attributes": N_ATTRIBUTES,
            "edge_factor": EDGE_FACTOR,
            "n_layers": "attr depth",
        },
        "conditions": "distinct attribute nodes drawn uniformly, one per slot of simple policies",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "points": rows,
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
