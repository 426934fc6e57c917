"""Sweep attribute-closure time over attribute depth and condition-node share.

Builds one random graph per attribute depth with `tests/randmodel.py`
(1000 primitives and 10000 attributes in as many layers as the depth, edge
factor 6: 11k nodes and ~66k distinct HAS_ATTR edges, about the size of the
graph-deep benchmark workload).  For each condition-node share it fills a
fresh `PolicyStore` on that graph with simple policies whose conditions are
distinct attribute nodes drawn uniformly, until that share of all nodes are
condition nodes; each slot gets about a third of them.  Then, for the same
sample of primitives, it times four closures in turns, start by start:

- the full closure: `Graph.attribute_closure(p, depth)` over the whole graph;
- per slot, the trimmed closure: the same call over that slot's copy in the
  `adjacency` of the store's snapshot (`PolicyStore.policies()`), which is
  what `PolicySnapshot.closures` walks for that slot.

It records their median and p90 in microseconds, the mean node counts, the
condition nodes each start reaches, the build time of the snapshot that
holds the three trimmed copies, with its key index, and, per slot, the
share of nodes its copy keeps.  A check that each slot's closure agrees
with the full closure at every condition node of that slot runs outside
the timed region.  ``calib_ms`` is the mean of `bench/run.py`'s host-speed
loop timed before and after the sweep, so a later run can be scaled to
this one.

    PYTHONPATH=src python3 scripts/closure_sweep.py
    PYTHONPATH=src python3 scripts/closure_sweep.py --depths 5 8 --shares 0.1 --out -

The default sweep takes about 8 s and peaks at about 70 MB RSS on a
2-vCPU VM with CPython 3.11.
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

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]
from randmodel import RandomModelConfig, random_model  # noqa: E402
from run import calib_ms  # noqa: E402

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


def timed_us(
    g: Graph, starts: list[int], adjacency: tuple[Adjacency, ...]
) -> list[list[float]]:
    """Closure times per start, full first, then one per slot's copy, taken
    in turns so that a slow spell of the host falls on all of them."""
    times: list[list[float]] = [[] for _ in range(1 + len(adjacency))]
    for s in starts:
        for adj, out in zip((None, *adjacency), times):
            t = time.perf_counter_ns()
            g.attribute_closure(s, g.attr_depth, adj)
            out.append((time.perf_counter_ns() - t) / 1e3)
    return [sorted(out) for out in times]


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
        t = time.perf_counter()
        snapshot = store.policies()
        trim_ms = (time.perf_counter() - t) * 1e3
        gc.collect()
        full_us, *trimmed_us = timed_us(g, starts, snapshot.adjacency)
        slots = {}
        for i, (slot, adjacency, us) in enumerate(
            zip(ConditionType, snapshot.adjacency, trimmed_us)
        ):
            conditions = {n for p in store for n in p.nodes[i]}
            trimmed = {s: g.attribute_closure(s, g.attr_depth, adjacency) for s in starts}
            for s in starts:
                for c in conditions:
                    if trimmed[s].get(c) != full[s].get(c):
                        raise AssertionError(
                            f"{slot.value} closures disagree at node {c} from {s}"
                        )
            kept = sum(1 for n, children in enumerate(adjacency) if children or n in conditions)
            slots[slot.value] = {
                "condition_nodes": len(conditions),
                "trimmed_us_p50": round(statistics.median(us), 1),
                "trimmed_us_p90": round(us[int(0.9 * len(us))], 1),
                "trimmed_nodes_mean": round(statistics.fmean(map(len, trimmed.values())), 1),
                "conditions_reached_mean": round(
                    statistics.fmean(len(conditions & c.keys()) for c in full.values()), 1
                ),
                "p50_ratio": round(statistics.median(us) / statistics.median(full_us), 3),
                "nodes_kept_share": round(kept / g.node_count(), 4),
            }
        n_conditions = len({n for p in store for nodes in p.nodes for n in nodes})
        rows.append(
            {
                "attr_depth": g.attr_depth,
                "nodes": g.node_count(),
                "has_attr_edges": g.edge_count(HAS_ATTR),
                "condition_nodes": n_conditions,
                "condition_share": round(n_conditions / g.node_count(), 4),
                "policies": len(store),
                "starts": len(starts),
                "full_us_p50": round(statistics.median(full_us), 1),
                "full_us_p90": round(full_us[int(0.9 * len(full_us))], 1),
                "full_nodes_mean": round(statistics.fmean(map(len, full.values())), 1),
                "trim_ms": round(trim_ms, 1),
                "slots": slots,
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

    calib = [calib_ms()]
    rows = []
    for depth in args.depths:
        for row in measure(depth, args.shares, args.seed, args.starts):
            trimmed = ", ".join(
                f"{slot} {v['trimmed_us_p50']:.0f} us / {v['trimmed_nodes_mean']:.0f} nodes"
                for slot, v in row["slots"].items()
            )
            print(
                f"depth {row['attr_depth']:>2} share {row['condition_share']:.2f}: "
                f"full {row['full_us_p50']:.0f} us / {row['full_nodes_mean']:.0f} nodes; "
                f"trimmed {trimmed}",
                file=sys.stderr,
            )
            rows.append(row)
    calib.append(calib_ms())
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
        "trimmed": "per slot, over that slot's copy; checked at that slot's condition nodes",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "calib_ms": round(statistics.fmean(calib), 2),
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
