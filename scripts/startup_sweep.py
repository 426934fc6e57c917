"""Time graphabac's start-up: the interpreter, the import, `check` and `serve`.

Copies the graphabac package that this script imports, without any
`__pycache__`, into a temporary directory, and starts fresh children with
`-B`, so every child compiles the package's sources on import as the
benchmark's `serve` does under `PYTHONDONTWRITEBYTECODE=1`.  Each child
puts the copy first on `sys.path` and then does one of:

- `bare`: nothing more, the interpreter's own start and exit;
- `typing`: `import typing`, the one import of the named tuples' module
  that a clean interpreter does not already hold;
- `import`: `import graphabac.cli`;
- `check`: `graphabac check` on the bundled healthcare model, `John Write
  MR_1234`, which must print `Permit`;
- `check_graph_deep`, `check_policy_scan`: `graphabac check` on the seed-1
  model of that benchmark workload, built with `bench/workloads.build`, for
  the first of its requests that `bench/reference.py` answers `Permit` under
  the default algorithm; it must print `Permit`;
- `serve`: `graphabac serve` on the same model, timed from spawn to its
  reply to one request, which must be a Permit; then its peak resident
  set, `VmHWM`, is read before its input is closed;
- `serve_graph_deep`, `serve_policy_scan`: the same on the seed-1 model of
  that workload, asked the request its `check` case decides.

Each case runs under two interpreter modes: `isolated` (`-I -S`, no
site-packages and no environment, so nothing outside the standard library
is imported first) and `site` (the interpreter's usual start, whose `.pth`
files may already import some of what graphabac needs).  One round runs
every case in both modes, and rounds repeat, so all figures see the same
host speed; like `bench/run.py`, the script pins itself and its children
to one CPU.  Per mode and case it reports the median and quartiles
(nearest rank) of the wall times in milliseconds, and of each `serve`
case's `VmHWM` in MB (`serve_vmhwm_mb`, `serve_graph_deep_vmhwm_mb`,
`serve_policy_scan_vmhwm_mb`).  ``calib_ms`` is the mean of
`bench/run.py`'s host-speed loop timed before and after, so a later run
can be scaled to this one.

    PYTHONPATH=src python3 scripts/startup_sweep.py               # 21 rounds
    PYTHONPATH=src python3 scripts/startup_sweep.py --runs 3 --out -

It times whichever graphabac is first on PYTHONPATH, so pointing
PYTHONPATH at another source tree times that tree.  The default run takes
about 2 minutes on a 2-vCPU VM with CPython 3.11, most of it in the
benchmark models' `check` and `serve` cases.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import graphabac

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "bench")]
import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from run import Serve, calib_ms, percentile, pin_to_one_cpu  # noqa: E402

MODES = {"isolated": ["-B", "-I", "-S"], "site": ["-B"]}
QUERY = ["John", "Write", "MR_1234"]
BENCH_MODELS = ("graph-deep", "policy-scan")
BENCH_SEED = 1


def request(query: list[str]) -> bytes:
    """The one `serve` request line for (subject, action, object)."""
    fields = dict(zip(("subject", "action", "object"), query))
    return json.dumps({"id": "1", **fields}).encode() + b"\n"


def bench_models(work: str, healthcare_text: str) -> dict[str, tuple[str, list[str]]]:
    """Each benchmark model written to ``work``: its path, and the first of
    its requests that the reference answers Permit under the default
    algorithm."""
    models = {}
    for name in BENCH_MODELS:
        wl = workloads.build(name, BENCH_SEED, healthcare_text)
        ref = Reference(wl.spec)
        query = next(
            list(r.query[:3]) for r in wl.requests
            if r.query and ref.decide(*r.query[:3], "deny-overrides")[0] == "Permit"
        )
        path = os.path.join(work, f"{name}.abac")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(wl.model_text)
        models[name] = (path, query)
    return models


def scripts(
    src: str, model: str, bench: dict[str, tuple[str, list[str]]]
) -> tuple[dict[str, str], dict[str, bytes]]:
    """The `-c` program of each case, over the copy of the package in
    ``src``, and the request line of each `serve` case."""
    prefix = f"import sys; sys.path.insert(0, {src!r})"
    main = "from graphabac.cli import main; sys.exit(main({}))"
    programs = {
        "bare": prefix,
        "typing": f"{prefix}; import typing",
        "import": f"{prefix}; import graphabac.cli",
        "check": f"{prefix}; {main.format(['check', model, *QUERY])}",
        "serve": f"{prefix}; {main.format(['serve', model])}",
    }
    requests = {"serve": request(QUERY)}
    for name, (path, query) in bench.items():
        case = name.replace("-", "_")
        programs["check_" + case] = f"{prefix}; {main.format(['check', path, *query])}"
        programs["serve_" + case] = f"{prefix}; {main.format(['serve', path])}"
        requests["serve_" + case] = request(query)
    return programs, requests


def run_once(flags: list[str], program: str) -> float:
    """Wall milliseconds of one child that must exit 0, printing `Permit`
    if it prints anything."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", program], capture_output=True)
    took = (time.perf_counter() - t0) * 1e3
    if proc.returncode != 0 or proc.stdout not in (b"", b"Permit\n"):
        raise RuntimeError(f"child failed: {proc.returncode} {proc.stdout!r} {proc.stderr!r}")
    return took


def serve_once(flags: list[str], program: str, line: bytes) -> tuple[float, float]:
    """Wall milliseconds from spawn to the reply to ``line``, and VmHWM in MB."""
    proc = Serve([*flags, "-c", program], dict(os.environ))
    try:
        reply = proc.ask(line)
        took = (time.perf_counter() - proc.started) * 1e3
        if reply is None or json.loads(reply)["decision"] != "Permit":
            raise RuntimeError(f"serve replied {reply!r}")
        return took, proc.peak_rss_mb()
    finally:
        proc.close()


def spread(values: list[float]) -> dict:
    ordered = sorted(values)
    return {
        "p25": round(percentile(ordered, 25), 2),
        "p50": round(statistics.median(ordered), 2),
        "p75": round(percentile(ordered, 75), 2),
    }


def measure(src: str, model: str, bench: dict[str, tuple[str, list[str]]], runs: int) -> dict:
    programs, requests = scripts(src, model, bench)
    times = {mode: {case: [] for case in programs} for mode in MODES}
    rss = {mode: {case: [] for case in requests} for mode in MODES}
    # One untimed round, so the interpreter's own files are in the page cache.
    for flags in MODES.values():
        run_once(flags, programs["import"])
    for _ in range(runs):
        for mode, flags in MODES.items():
            for case, program in programs.items():
                if case in requests:
                    took, peak = serve_once(flags, program, requests[case])
                    rss[mode][case].append(peak)
                else:
                    took = run_once(flags, program)
                times[mode][case].append(took)
    return {
        mode: {
            "flags": " ".join(flags),
            **{f"{case}_ms": spread(times[mode][case]) for case in programs},
            **{f"{case}_vmhwm_mb": spread(rss[mode][case]) for case in requests},
        }
        for mode, flags in MODES.items()
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=21, help="rounds over every case and mode")
    ap.add_argument("--out", default="BENCH_startup.json", help="path, or - for stdout")
    args = ap.parse_args(argv)

    cpu = pin_to_one_cpu()
    package = os.path.dirname(os.path.abspath(graphabac.__file__))
    calib = [calib_ms()]
    with tempfile.TemporaryDirectory() as work:
        copy = os.path.join(work, "graphabac")
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        model = os.path.join(copy, "data", "healthcare.abac")
        with open(model, encoding="utf-8") as fh:
            bench = bench_models(work, fh.read())
        modes = measure(work, model, bench, args.runs)
    calib.append(calib_ms())
    report = {
        "script": "scripts/startup_sweep.py",
        "model": "bundled healthcare model, check and serve on John Write MR_1234",
        "bench_models": {
            name: f"seed {BENCH_SEED}, check and serve on {' '.join(query)}"
            for name, (_, query) in bench.items()
        },
        "runs": args.runs,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "calib_ms": round(statistics.fmean(calib), 2),
        "modes": modes,
    }
    for mode, figures in modes.items():
        print(
            f"{mode}: bare {figures['bare_ms']['p50']} ms, import {figures['import_ms']['p50']} ms, "
            f"check {figures['check_ms']['p50']} ms, serve {figures['serve_ms']['p50']} ms, "
            f"serve VmHWM {figures['serve_vmhwm_mb']['p50']} MB, check graph-deep "
            f"{figures['check_graph_deep_ms']['p50']} ms, check policy-scan "
            f"{figures['check_policy_scan_ms']['p50']} ms, serve VmHWM graph-deep "
            f"{figures['serve_graph_deep_vmhwm_mb']['p50']} MB, policy-scan "
            f"{figures['serve_policy_scan_vmhwm_mb']['p50']} MB",
            file=sys.stderr,
        )
    out = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(out)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
