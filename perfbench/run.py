"""Benchmark of quantum3: time to a checked invariant, from a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

A user asks for an invariant or a Hempel report and waits for the number,
through a `quantum3` CLI call or a library call in a fresh interpreter.
So every repetition runs cold in its own child interpreter, one at a
time: in one process the asset, weight-table and grand-sum caches would
turn a second repetition into a dict lookup.

With --trace 0 the run measures, for --seconds seconds, repetitions of
the workload and reports the end-to-end metrics as medians:

- wall_s: spawn of the child to its last checked result;
- cpu_s: user+sys CPU time of the child;
- peak_rss_mb: ru_maxrss of the child;
- setup_s: spawn to the end of `import quantum3` and the asset loads,
  over extra set-up-only children plus every repetition.

fail_frac (failed / attempted operations) is printed with them; it is 0
on correct code, so it is carried by the `attempted` and `failed` fields
of the result rather than as a metric.

With --trace 1 the run makes one untraced and two traced repetitions and
reports the per-layer metrics (see tracer.py) as the median of the traced
ones, plus trace.overhead_s, traced minus untraced wall time.  The exact
counts in tracer.EXACT_COUNTS must repeat between the two traced
repetitions and across traced runs of the same sources; a mismatch stops
the benchmark with exit code 2.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details of the run (every
sample, machine facts, spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_CHILDREN = 7
# A run must end within 180 s; children that would pass this are killed.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class CountMismatch(BenchError):
    """A count that must repeat exactly did not."""


def machine_facts() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "source_sha256": source_digest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "src").rglob("*.json"))
    files += sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Spawns children one at a time within the run's time budget."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k != "QUANTUM3_ASSETS"}
        # numpy asks for transparent huge pages on large arrays; whether the
        # kernel grants them depends on the host's memory fragmentation at
        # the time, so the float workloads run without them.
        self.env["NUMPY_MADVISE_HUGEPAGE"] = "0"

    def child(self, trace: bool, run_id: str, setup_only: bool = False) -> dict:
        cmd = [sys.executable, "-E", str(HERE / "child.py"), self.workload,
               str(self.seed), "1" if trace else "0", run_id]
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted before the next repetition")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"repetition {run_id} passed the run budget") from exc
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"repetition {run_id} exited with code {proc.returncode}")
        out = json.loads(lines[-1])
        out["setup_s"] = out["setup_end"] - spawned
        if not setup_only:
            out["wall_s"] = out["done"] - spawned
        return out


def _summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _rep_id(workload: str, seed: int, i: int, traced: bool) -> str:
    return f"{workload}-s{seed}-{'traced' if traced else 'plain'}{i}"


def run_untraced(runner: Runner, seconds: int) -> tuple[dict, list[dict]]:
    w, seed = runner.workload, runner.seed
    runner.child(False, f"{w}-s{seed}-warmup", setup_only=True)  # bytecode caches
    setups = [
        runner.child(False, f"{w}-s{seed}-setup{i}", setup_only=True)["setup_s"]
        for i in range(SETUP_CHILDREN)
    ]
    # Start a repetition only while it is expected to end within the run
    # length, so a run lasts about --seconds whatever the repetition cost;
    # the first one always runs.
    reps: list[dict] = []
    start = time.monotonic()
    while not reps or (
        time.monotonic() - start + statistics.median(r["wall_s"] for r in reps) <= seconds
    ):
        reps.append(runner.child(False, _rep_id(w, seed, len(reps), False)))
    summaries = {
        "wall_s": _summary([r["wall_s"] for r in reps]),
        "cpu_s": _summary([r["cpu_s"] for r in reps]),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in reps]),
        "setup_s": _summary(setups + [r["setup_s"] for r in reps]),
    }
    return summaries, reps


def _check_counts(workload: str, traced: list[dict]) -> dict:
    counts = [{k: r["layers"][k] for k in EXACT_COUNTS} for r in traced]
    if any(c != counts[0] for c in counts):
        raise CountMismatch(f"exact counts differ between traced repetitions: {counts}")
    # Across runs: traced runs of the same sources must agree too.  The seed
    # only picks among inputs of equal work, so it is not part of the key.
    OUT.mkdir(exist_ok=True)
    path = OUT / "counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{source_digest()}:{workload}"
    if key in known and known[key] != counts[0]:
        raise CountMismatch(
            f"exact counts differ from an earlier traced run of the same sources: "
            f"{known[key]} then {counts[0]}"
        )
    known[key] = counts[0]
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return counts[0]


def run_traced(runner: Runner) -> tuple[dict, list[dict]]:
    w, seed = runner.workload, runner.seed
    runner.child(False, f"{w}-s{seed}-warmup", setup_only=True)
    plain = runner.child(False, _rep_id(w, seed, 0, False))
    traced = [runner.child(True, _rep_id(w, seed, i, True)) for i in range(2)]
    _check_counts(w, traced)
    summaries = {
        name: _summary([r["layers"][name] for r in traced])
        for name in LAYER_METRICS if name != "trace.overhead_s"
    }
    summaries["trace.overhead_s"] = _summary(
        [statistics.median(r["wall_s"] for r in traced) - plain["wall_s"]]
    )
    return summaries, [plain] + traced


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(workload, seed)
    if trace:
        summaries, reps = run_traced(runner)
        units = {k: v[0] for k, v in LAYER_METRICS.items()}
    else:
        summaries, reps = run_untraced(runner, seconds)
        units = END_TO_END
    failures = [(o["op"], o["failure"]) for r in reps for o in r["ops"] if o["failure"]]
    attempted = sum(len(r["ops"]) for r in reps)
    absent = sorted({m for r in reps for m in r.get("absent", [])})
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "units": units,
        "summaries": summaries,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "absent": absent,
        "reps": reps,
    }


def print_block(res: dict, facts: dict) -> None:
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  "
          f"reps={len(res['reps'])}  ({WORKLOADS[res['workload']][0]})")
    for name, s in res["summaries"].items():
        flag = "  (absent)" if name in res["absent"] else ""
        print(f"  {name:32s} {s['median']:14.6g} {res['units'][name]:6s}"
              f" median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}{flag}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':32s} {frac:14.6g} {'1':6s} {res['failed']} of {res['attempted']} operations")
    for op, why in res["failures"][:10]:
        print(f"    FAILED {op}: {why}")
    if res["absent"]:
        print(f"  absent layers: {', '.join(res['absent'])}")
    print(f"  machine: nproc={facts['nproc']} ram_gb={facts['ram_gb']} python={facts['python']} "
          f"numpy={facts['numpy']} commit={facts['commit']}")


def write_details(res: dict, facts: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps({"machine": facts, **res}, indent=1))
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "quantum3" / "__init__.py").is_file():
        print(f"error: no quantum3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    facts = machine_facts()
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_block(res, facts)
            print(f"  details: {write_details(res, facts).relative_to(ROOT)}")
            results.append(res)
    except CountMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for name, s in res["summaries"].items():
            metrics[prefix + name] = {"value": s["median"], "unit": res["units"][name]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
