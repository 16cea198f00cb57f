"""Per-layer tracing of quantum3 by attribute replacement.

The package is not edited: each layer entry point is replaced, in every
quantum3 module that holds it, by a wrapper that records a span (name,
start, end, parent, run id) or, for the hot leaf calls of `cyclo` and
`seifert`, only a call count and total time.  Spans stay in memory and
are returned with the repetition's result.  An entry point that no longer
exists is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import inspect
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Per-layer metrics: name -> (unit, better).  Order is the report order.
LAYER_METRICS = {
    "complex3.load_s": ("s", "lower"),
    "statesum.order_s": ("s", "lower"),
    "statesum.frontier_width": ("count", "lower"),
    "statesum.tables_s": ("s", "lower"),
    "statesum.probe_s": ("s", "lower"),
    "statesum.probe_peak_states": ("count", "lower"),
    "statesum.sweep_s": ("s", "lower"),
    "statesum.sweeps": ("count", "lower"),
    "statesum.pinned_edges": ("count", "lower"),
    "statesum.peak_states": ("count", "lower"),
    "statesum.live_states": ("count", "lower"),
    "statesum.state_bytes_computed": ("B", "lower"),
    "statesum.merge_s": ("s", "lower"),
    "statesum.merge_calls": ("count", "lower"),
    "statesum.transition_s": ("s", "lower"),
    "statesum.rss_after_probe_mb": ("MB", "lower"),
    "statesum.rss_after_sweep_mb": ("MB", "lower"),
    "statesum.frontier_s": ("s", "lower"),
    "statesum.tet_weights": ("count", "lower"),
    "cyclo.mul_calls": ("count", "lower"),
    "cyclo.mul_s": ("s", "lower"),
    "cyclo.inverse_calls": ("count", "lower"),
    "seifert.ratio_s": ("s", "lower"),
    "seifert.ratio_calls": ("count", "lower"),
    "seifert.phase_calls": ("count", "lower"),
    "seifert.closed_form_s": ("s", "lower"),
    "hempel.report_s": ("s", "lower"),
    "hempel.self_s": ("s", "lower"),
    "hempel.rows": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly between traced runs of one commit.
EXACT_COUNTS = (
    "cyclo.mul_calls",
    "statesum.tet_weights",
    "statesum.live_states",
    "statesum.peak_states",
    "seifert.phase_calls",
)

# Entry point -> metrics that read 0 without it.
_DEPENDS = {
    "complex3.load_triangulation": ["complex3.load_s"],
    "statesum._assignment_order": ["statesum.order_s"],
    "statesum._frontier_widths": ["statesum.frontier_width"],
    "statesum._vector_tables": ["statesum.tables_s"],
    "statesum._run_frontier_vector": [
        "statesum.probe_s", "statesum.probe_peak_states", "statesum.sweep_s",
        "statesum.sweeps", "statesum.pinned_edges", "statesum.transition_s",
        "statesum.rss_after_probe_mb", "statesum.rss_after_sweep_mb",
    ],
    "statesum._run_frontier_vector(peak_out)": [
        "statesum.probe_peak_states", "statesum.peak_states",
        "statesum.live_states", "statesum.state_bytes_computed",
    ],
    "statesum._SortedAccumulator.flush": ["statesum.merge_s", "statesum.merge_calls"],
    "statesum._run_frontier": ["statesum.frontier_s"],
    "statesum._tet_weight.cache_info": ["statesum.tet_weights"],
    "cyclo.CycloNum.__mul__": ["cyclo.mul_calls", "cyclo.mul_s"],
    "cyclo.CycloNum.inverse": ["cyclo.inverse_calls"],
    "seifert.hansen_ratio": ["seifert.ratio_s", "seifert.ratio_calls"],
    "seifert._phase": ["seifert.phase_calls"],
    "seifert.tv_closed_form": ["seifert.closed_form_s"],
    "hempel.report": ["hempel.report_s", "hempel.self_s", "hempel.rows"],
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans and counters of one repetition, in memory until it ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.vector: list[dict] = []  # one record per vector-engine call
        self.widths: list[int] = []
        self.rows = 0

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    # -- installing wrappers ------------------------------------------------

    def _lookup(self, qualname: str):
        """(holder, attribute, original) for 'module.attr' or
        'module.Class.attr'; original is None when it does not exist."""
        mod_name, _, rest = qualname.partition(".")
        holder = sys.modules.get(f"quantum3.{mod_name}")
        *owners, leaf = rest.split(".")
        for owner in owners:
            holder = getattr(holder, owner, None)
        original = getattr(holder, leaf, None) if holder is not None else None
        return holder, leaf, original

    def _replace(self, qualname: str, make_wrapper) -> None:
        holder, leaf, original = self._lookup(qualname)
        if original is None:
            self.absent.append(qualname)
            return
        wrapper = make_wrapper(original)
        if inspect.isclass(holder):
            setattr(holder, leaf, wrapper)
            return
        # A module-level name may be imported into other modules (and the
        # package namespace): replace every binding of the same object.
        for name, mod in list(sys.modules.items()):
            if (name == "quantum3" or name.startswith("quantum3.")) and getattr(mod, leaf, None) is original:
                setattr(mod, leaf, wrapper)

    def _spanned(self, name: str, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _counted(self, key: str, timed: bool):
        calls, busy = self.calls, self.busy
        perf = time.perf_counter

        def make(fn):
            if not timed:
                def wrapper(*args, **kwargs):
                    calls[key] += 1
                    return fn(*args, **kwargs)
                return wrapper

            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    busy[key] += perf() - t0
                    calls[key] += 1
            return wrapper
        return make

    def install(self) -> None:
        """Wrap every layer entry point; call after `import quantum3` and
        before any asset is loaded."""
        self._replace("complex3.load_triangulation", self._spanned("complex3.load"))
        _, _, widths = self._lookup("statesum._frontier_widths")
        if widths is None:
            self.absent.append("statesum._frontier_widths")

        def record_width(args, order):
            if widths is not None:
                self.widths.append(max(widths(args[0], order), default=0))

        self._replace("statesum._assignment_order", self._spanned("statesum.order", record_width))
        self._replace("statesum._vector_tables", self._spanned("statesum.tables"))
        self._replace("statesum._run_frontier_vector", self._wrap_vector)
        self._replace("statesum._SortedAccumulator.flush", self._spanned("statesum.merge"))
        self._replace("statesum._run_frontier", self._spanned("statesum.frontier"))
        # __rmul__ is a second binding of the same function: same key.
        self._replace("cyclo.CycloNum.__mul__", self._counted("cyclo.mul", True))
        self._replace("cyclo.CycloNum.__rmul__", self._counted("cyclo.mul", True))
        self._replace("cyclo.CycloNum.inverse", self._counted("cyclo.inverse", False))
        self._replace("seifert.hansen_ratio", self._spanned("seifert.ratio"))
        self._replace("seifert._phase", self._counted("seifert.phase", False))
        self._replace("seifert.tv_closed_form", self._spanned("seifert.closed_form"))

        def count_rows(args, rep):
            self.rows += len(getattr(rep, "rows", ()))

        self._replace("hempel.report", self._spanned("hempel.report", count_rows))

    def _wrap_vector(self, fn):
        """The vector engine: a call with empty s_values is the count-only
        sizing probe, any other call a value sweep.  peak_out, when the
        engine still takes it, yields the live states after every step."""
        sig = inspect.signature(fn)
        has_peaks = "peak_out" in sig.parameters
        if not has_peaks:
            self.absent.append("statesum._run_frontier_vector(peak_out)")

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            s_values = tuple(bound.arguments.get("s_values", ()))
            caller_peaks = bound.arguments.get("peak_out")
            steps: list[int] = []
            if has_peaks:
                bound.arguments["peak_out"] = steps
            kind = "sweep" if s_values else "probe"
            with self.span(f"statesum.{kind}"):
                result = fn(*bound.args, **bound.kwargs)
            if caller_peaks is not None:
                caller_peaks.extend(steps)
            self.vector.append({
                "kind": kind,
                "columns": len(s_values),
                "pins": len(bound.arguments.get("pins") or {}),
                "steps": steps,
                "rss_mb": _rss_mb(),
            })
            return result

        return wrapper

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        def total(name: str) -> float:
            return sum(s[3] - s[2] for s in self.spans if s[1] == name)

        def self_time(names: tuple[str, ...]) -> float:
            child = defaultdict(float)
            for s in self.spans:
                if s[4] is not None:
                    child[s[4]] += s[3] - s[2]
            return sum(s[3] - s[2] - child[s[0]] for s in self.spans if s[1] in names)

        probes = [v for v in self.vector if v["kind"] == "probe"]
        sweeps = [v for v in self.vector if v["kind"] == "sweep"]
        # bytes per live row of a sweep: an int64 key and a complex128 per column
        state_bytes = sum(sum(v["steps"]) * (8 + 16 * v["columns"]) for v in sweeps)
        tet_misses = 0
        _, _, tet = self._lookup("statesum._tet_weight")
        if hasattr(tet, "cache_info"):
            tet_misses = tet.cache_info().misses
        else:
            self.absent.append("statesum._tet_weight.cache_info")
        report_s = total("hempel.report")
        return {
            "complex3.load_s": total("complex3.load"),
            "statesum.order_s": total("statesum.order"),
            "statesum.frontier_width": max(self.widths, default=0),
            "statesum.tables_s": total("statesum.tables"),
            "statesum.probe_s": total("statesum.probe"),
            "statesum.probe_peak_states": max((max(v["steps"], default=0) for v in probes), default=0),
            "statesum.sweep_s": total("statesum.sweep"),
            "statesum.sweeps": len(sweeps),
            "statesum.pinned_edges": max((v["pins"] for v in sweeps), default=0),
            "statesum.peak_states": max((max(v["steps"], default=0) for v in sweeps), default=0),
            "statesum.live_states": sum(sum(v["steps"]) for v in sweeps),
            "statesum.state_bytes_computed": state_bytes,
            "statesum.merge_s": total("statesum.merge"),
            "statesum.merge_calls": sum(1 for s in self.spans if s[1] == "statesum.merge"),
            "statesum.transition_s": self_time(("statesum.probe", "statesum.sweep")),
            "statesum.rss_after_probe_mb": max((v["rss_mb"] for v in probes), default=0.0),
            "statesum.rss_after_sweep_mb": max((v["rss_mb"] for v in sweeps), default=0.0),
            "statesum.frontier_s": total("statesum.frontier"),
            "statesum.tet_weights": tet_misses,
            "cyclo.mul_calls": self.calls["cyclo.mul"],
            "cyclo.mul_s": self.busy["cyclo.mul"],
            "cyclo.inverse_calls": self.calls["cyclo.inverse"],
            "seifert.ratio_s": total("seifert.ratio"),
            "seifert.ratio_calls": sum(1 for s in self.spans if s[1] == "seifert.ratio"),
            "seifert.phase_calls": self.calls["seifert.phase"],
            "seifert.closed_form_s": total("seifert.closed_form"),
            "hempel.report_s": report_s,
            "hempel.self_s": self_time(("hempel.report",)),
            "hempel.rows": self.rows,
        }

    def absent_metrics(self) -> list[str]:
        return sorted({m for name in self.absent for m in _DEPENDS.get(name, [])})

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
            for i, name, start, end, parent in self.spans
        ]
