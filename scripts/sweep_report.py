"""What every sweep script's report shares: its import path, its header and
its writing.

Importing this module puts `bench/` and `tests/` first on `sys.path`, so a
sweep can import `run`, `workloads` and `reference` from the benchmark and
`randmodel` from the tests.  ``SRC`` is the source tree of the graphabac
package imported, the tree a sweep measures.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import graphabac

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "tests")]
from run import commit_id, source_digest  # noqa: E402

SRC = os.path.dirname(os.path.dirname(os.path.abspath(graphabac.__file__)))


def header(script: str) -> dict:
    """The keys a report starts with: the script, the commit and source
    digest of ``SRC`` as `bench/run.py` prints them, and the interpreter
    and the host's CPU count."""
    return {
        "script": script,
        "commit": commit_id(SRC),
        "src_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
    }


def write(report: dict, out: str) -> None:
    """Write ``report`` as indented JSON to the path ``out``, or to stdout
    for ``-``."""
    text = json.dumps(report, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
