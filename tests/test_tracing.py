"""The benchmark's tracer can wrap and unwrap every engine name it traces.

``bench/tracing.py`` wraps engine functions by attribute name, so a
renamed or removed function breaks every traced benchmark run; this
catches it without running the benchmark.
"""

import importlib
import pathlib
import sys

BENCH = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from tracing import Tracer  # noqa: E402

from graphabac.graph import Graph  # noqa: E402
from graphabac.policy import PolicyStore  # noqa: E402

# The package exports a function named ``combine``, so ``import
# graphabac.combine as combine`` would bind that function, not the module.
cli, combine, dsl, matcher = (
    importlib.import_module(f"graphabac.{name}") for name in ("cli", "combine", "dsl", "matcher")
)

TRACED = [
    (dsl, "parse_model"),
    (dsl, "load_document"),
    (Graph, "freeze"),
    (Graph, "attribute_closure"),
    (PolicyStore, "create_policy"),
    (PolicyStore, "policies"),
    (matcher, "matching_policies"),
    (combine, "matching_policies"),
    (combine, "combine"),
    (combine, "evaluate"),
    (cli, "evaluate"),
    (cli, "serve_loop"),
]


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in TRACED]
    tracer = Tracer()
    try:
        tracer.install()
        wrapped = [(owner, attr) for owner, attr, _ in tracer._saved]
        for owner, attr, original in originals:
            assert owner.__dict__[attr].__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    assert set(wrapped) == set(TRACED)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)
