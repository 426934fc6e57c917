"""`graphabac serve` that also records how long each request spends inside it.

    python3 bench/serve_timed.py MODEL TIMES_OUT

Runs the engine's `serve_loop` on stdin/stdout exactly as `graphabac serve
MODEL` does.  At end of input it writes to TIMES_OUT one line per request
with two numbers: the ns from handing the request line to `serve_loop`
until its response is flushed, and the ns of that spent in `evaluate`
(0 when the request never reached it).  The traced run subtracts these
from the client's round trips to get the cost of the pipe and of the
front end.  Needs graphabac on PYTHONPATH.
"""

import sys
import time

import graphabac.cli as cli
from graphabac import CombiningAlgorithm, load_model_file


def main() -> int:
    model_path, times_path = sys.argv[1:3]
    model = load_model_file(model_path)
    clock = time.perf_counter_ns
    handed: list[int] = []
    flushed: list[int] = []
    evaluating = [0]
    evaluated: list[int] = []
    evaluate = cli.evaluate

    def timed_evaluate(*args, **kwargs):
        t0 = clock()
        try:
            return evaluate(*args, **kwargs)
        finally:
            evaluating[0] += clock() - t0

    def lines():
        for line in sys.stdin:
            evaluating[0] = 0
            handed.append(clock())
            yield line

    class Out:
        def write(self, text: str) -> None:
            sys.stdout.write(text)

        def flush(self) -> None:
            sys.stdout.flush()
            flushed.append(clock())
            evaluated.append(evaluating[0])

    cli.evaluate = timed_evaluate
    cli.serve_loop(model, CombiningAlgorithm.DENY_OVERRIDES, lines(), Out())
    with open(times_path, "w", encoding="ascii") as fh:
        fh.writelines(f"{b - a} {e}\n" for a, b, e in zip(handed, flushed, evaluated))
    return 0


if __name__ == "__main__":
    sys.exit(main())
