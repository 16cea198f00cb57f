"""One benchmark repetition in a fresh interpreter.

Usage (started by run.py, one child at a time):

    python3 -E perfbench/child.py WORKLOAD SEED TRACE RUN_ID [--setup-only]

It imports quantum3 from the checkout's src/, optionally installs the
tracer, does the workload's set-up (asset loads, symbol parsing), runs
and checks every operation, and prints one JSON line: the monotonic
times at which set-up and the checked results were done, its own CPU
time and ru_maxrss, the outcome of each operation and, when traced, the
per-layer metrics and spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    workload, seed, trace, run_id = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    setup_only = "--setup-only" in argv[4:]

    import quantum3

    if not Path(quantum3.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"quantum3 imported from {quantum3.__file__}, not from {ROOT / 'src'}")

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()

    import workloads

    ops = workloads.build(workload, quantum3, seed)
    setup_end = time.monotonic()
    out: dict = {"setup_end": setup_end}
    if not setup_only:
        outcomes = []
        for op in ops:
            start = time.perf_counter()
            try:
                reason = op.check(op.call())
            except Exception as exc:  # an operation that raises counts as failed
                reason = f"raised {type(exc).__name__}: {exc}"
            outcomes.append({"op": op.name, "s": time.perf_counter() - start, "failure": reason})
        out["done"] = time.monotonic()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
        out["peak_rss_mb"] = usage.ru_maxrss / 1024
        out["ops"] = outcomes
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["absent"] = tracer.absent_metrics()
            out["spans"] = tracer.span_records()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
