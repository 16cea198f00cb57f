"""Turaev-Viro state sums TV_{r,s} and TV'_{r,s} over a closed triangulation.

Weights follow the standard normalization: an edge of color i carries
(-1)^i [i+1]; a face with colors (i, j, k) and half-sum S carries
(-1)^S [S-i]! [S-j]! [S-k]! / [S+1]!; a tetrahedron carries the
alternating z-sum of [z+1]! over the products of the face half-sums T_a
and the square half-sums Q_b.  Terms with z > r-2 always vanish because
[z+1]! then contains the zero quantum integer [r], so the z range is
capped at r-2; the denominator arguments stay within 0..r-2 for
admissible colors.

The grand sum over admissible colorings is accumulated exactly as one
CycloNum and evaluated once per s.  Colorings are never enumerated
individually: edges are assigned in the greedy face-completing order and
partial sums are merged over the colors of edges whose faces and
tetrahedra are all complete, which collapses the exponential stream to a
frontier of active edges.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from weakref import WeakKeyDictionary

from quantum3.complex3 import (
    Coloring,
    Triangulation,
    admissible_triple,
    color_range,
    greedy_edge_order,
)
from quantum3.cyclo import CycloNum, _inv_quantum_factorial, quantum_factorial, quantum_int


@dataclass(frozen=True)
class StateSumResult:
    """One evaluated invariant; value is the real part of raw after the
    reality check |Im(raw)| < 1e-9 (1 + |raw|)."""

    value: float
    raw: complex
    r: int
    s: int
    refined: bool
    coloring_count: int


@lru_cache(maxsize=None)
def _edge_weight(i: int, r: int) -> CycloNum:
    sign = -1 if i % 2 else 1
    return sign * quantum_int(i + 1, r)


@lru_cache(maxsize=None)
def _face_weight(i: int, j: int, k: int, r: int) -> CycloNum:
    if not admissible_triple(i, j, k, r):
        raise ValueError(f"face colors {(i, j, k)} not admissible at r={r}")
    s = (i + j + k) // 2
    out = quantum_factorial(s - i, r) * quantum_factorial(s - j, r)
    out = out * quantum_factorial(s - k, r) * _inv_quantum_factorial(s + 1, r)
    return -out if s % 2 else out


@lru_cache(maxsize=None)
def _tet_weight(i: int, j: int, k: int, l: int, m: int, n: int, r: int) -> CycloNum:
    faces = ((i, j, k), (i, m, n), (j, l, n), (k, l, m))
    for tri in faces:
        if not admissible_triple(*tri, r):
            raise ValueError(f"tetra face colors {tri} not admissible at r={r}")
    halves = [(a + b + c) // 2 for (a, b, c) in faces]
    squares = [(i + j + l + m) // 2, (i + k + l + n) // 2, (j + k + m + n) // 2]
    out = CycloNum.zero(r)
    for z in range(max(halves), min(min(squares), r - 2) + 1):
        term = quantum_factorial(z + 1, r)
        for t_a in halves:
            term = term * _inv_quantum_factorial(z - t_a, r)
        for q_b in squares:
            term = term * _inv_quantum_factorial(q_b - z, r)
        out = out + (-term if z % 2 else term)
    return out


def weight_edge(c: Coloring, e: int, r: int | None = None) -> CycloNum:
    """|e|_c for the edge with id e."""
    r = c.level_r if r is None else r
    if r != c.level_r:
        raise ValueError(f"level mismatch: coloring at {c.level_r}, requested {r}")
    return _edge_weight(c[e], r)


def weight_face(c: Coloring, f: tuple[int, int, int], r: int | None = None) -> CycloNum:
    """|f|_c for the face with edge ids f (as in Triangulation.face_edges)."""
    r = c.level_r if r is None else r
    if r != c.level_r:
        raise ValueError(f"level mismatch: coloring at {c.level_r}, requested {r}")
    e1, e2, e3 = f
    return _face_weight(c[e1], c[e2], c[e3], r)


def weight_tet(c: Coloring, t: tuple[int, ...], r: int | None = None) -> CycloNum:
    """|t|_c for the tetrahedron with slot-ordered edge ids t (as in
    Triangulation.tet_edges): slots (i,j,k,l,m,n) with opposite pairs
    (i,l), (j,m), (k,n)."""
    r = c.level_r if r is None else r
    if r != c.level_r:
        raise ValueError(f"level mismatch: coloring at {c.level_r}, requested {r}")
    i, j, k, l, m, n = (c[e] for e in t)
    return _tet_weight(i, j, k, l, m, n, r)


def coloring_weight(t: Triangulation, c: Coloring) -> CycloNum:
    """The full product weight of one admissible coloring: all edge, face,
    and tetrahedron weights multiplied."""
    out = CycloNum.one(c.level_r)
    for e in range(len(t.edges)):
        out = out * weight_edge(c, e)
    for f in t.face_edges:
        out = out * weight_face(c, f)
    for slots in t.tet_edges:
        out = out * weight_tet(c, slots)
    return out


class _Schedule:
    """Static elimination data for the frontier sum over one triangulation,
    in the greedy face-completing assignment order."""

    def __init__(self, t: Triangulation):
        order = greedy_edge_order(t)
        pos = {e: p for p, e in enumerate(order)}
        n = len(order)
        face_pos = [max(pos[e] for e in f) for f in t.face_edges]
        tet_pos = [max(pos[e] for e in slots) for slots in t.tet_edges]
        last_use = {e: pos[e] for e in range(n)}
        for f_id, f in enumerate(t.face_edges):
            for e in f:
                last_use[e] = max(last_use[e], face_pos[f_id])
        for t_id, slots in enumerate(t.tet_edges):
            for e in slots:
                last_use[e] = max(last_use[e], tet_pos[t_id])

        self.order = order
        self.face_checks = [[] for _ in range(n)]
        for f_id, f in enumerate(t.face_edges):
            self.face_checks[face_pos[f_id]].append(f)
        self.tet_checks = [[] for _ in range(n)]
        for t_id, slots in enumerate(t.tet_edges):
            self.tet_checks[tet_pos[t_id]].append(slots)

        self.active_after: list[tuple[int, ...]] = []
        assigned: list[int] = []
        for p, e in enumerate(order):
            assigned.append(e)
            self.active_after.append(tuple(sorted(x for x in assigned if last_use[x] > p)))

        # Per position: index maps for state projection and rebuilding.
        self.before_index: list[dict[int, int]] = []
        self.relevant_idx: list[tuple[int, ...]] = []  # -1 stands for the new edge
        self.rebuild_idx: list[tuple[int, ...]] = []
        for p, e in enumerate(order):
            before = self.active_after[p - 1] if p else ()
            index = {eid: q for q, eid in enumerate(before)}
            self.before_index.append(index)
            touched = sorted(
                {x for f in self.face_checks[p] for x in f}
                | {x for slots in self.tet_checks[p] for x in slots}
            )
            self.relevant_idx.append(tuple(-1 if x == e else index[x] for x in touched))
            self.rebuild_idx.append(
                tuple(-1 if x == e else index[x] for x in self.active_after[p])
            )


def _run_frontier(
    sched: _Schedule,
    r: int,
    even_only: bool,
    evaluator,
    zero,
    pin_first: int | None = None,
) -> tuple[object, int]:
    """Sum evaluator-images of coloring weights over all admissible colorings.

    evaluator maps a CycloNum multiplier to the accumulation domain (identity
    for the exact path, ev(., s) for the float path); zero is the additive
    identity there.  Returns (grand total, coloring count).
    """
    allowed = color_range(r, even_only)
    n = len(sched.order)
    # state slot holds the coloring count in [0] and the partial sum in [1]
    states: dict[tuple[int, ...], list] = {(): [1, evaluator(CycloNum.one(r))]}
    for p in range(n):
        e = sched.order[p]
        before_index = sched.before_index[p]
        face_checks = sched.face_checks[p]
        tet_checks = sched.tet_checks[p]
        relevant = sched.relevant_idx[p]
        rebuild = sched.rebuild_idx[p]
        colors_for_p = (pin_first,) if (p == 0 and pin_first is not None) else allowed

        def raw_multiplier(x: int, key: tuple[int, ...]):
            def col(eid: int) -> int:
                return x if eid == e else key[before_index[eid]]

            out = _edge_weight(x, r)
            for f in face_checks:
                tri = (col(f[0]), col(f[1]), col(f[2]))
                if not admissible_triple(*tri, r):
                    return None
                out = out * _face_weight(*tri, r)
            for slots in tet_checks:
                out = out * _tet_weight(*(col(eid) for eid in slots), r)
            return out

        next_states: dict[tuple[int, ...], list] = {}
        memo: dict[tuple[int, ...], object] = {}
        if -1 not in rebuild:
            # e is never needed again: sum its colors out immediately so
            # every surviving state costs one multiplication, not one per
            # color.  The count multiplier is the number of admissible
            # colors, kept even when the weight sum cancels to zero.
            for key, (cnt, val) in states.items():
                mk = tuple(key[q] for q in relevant if q != -1)
                agg = memo.get(mk, _MISSING)
                if agg is _MISSING:
                    n_adm = 0
                    tot = None
                    for x in colors_for_p:
                        raw = raw_multiplier(x, key)
                        if raw is None:
                            continue
                        n_adm += 1
                        tot = raw if tot is None else tot + raw
                    agg = None if n_adm == 0 else (n_adm, evaluator(tot))
                    memo[mk] = agg
                if agg is None:
                    continue
                new_key = tuple(key[q] for q in rebuild)
                slot = next_states.get(new_key)
                if slot is None:
                    next_states[new_key] = [cnt * agg[0], val * agg[1]]
                else:
                    slot[0] += cnt * agg[0]
                    slot[1] = slot[1] + val * agg[1]
        else:
            for key, (cnt, val) in states.items():
                for x in colors_for_p:
                    mk = (x,) + tuple(x if q == -1 else key[q] for q in relevant)
                    mult = memo.get(mk, _MISSING)
                    if mult is _MISSING:
                        raw = raw_multiplier(x, key)
                        mult = None if raw is None else evaluator(raw)
                        memo[mk] = mult
                    if mult is None:
                        continue
                    new_key = tuple(x if q == -1 else key[q] for q in rebuild)
                    slot = next_states.get(new_key)
                    if slot is None:
                        next_states[new_key] = [cnt, val * mult]
                    else:
                        slot[0] += cnt
                        slot[1] = slot[1] + val * mult
        states = next_states
        if not states:
            return zero, 0
    ((total_cnt, total_val),) = states.values()
    return total_val, total_cnt


_MISSING = object()


def _coprime_representatives(r: int, even_only: bool) -> tuple[int, ...]:
    """Representatives 1 <= s <= r-1 of the evaluation classes: every
    admissible s is congruent mod 2r to some representative or to the
    conjugate 2r - representative."""
    return tuple(
        s for s in range(1, r) if math.gcd(s, r) == 1 and (not even_only or s % 2 == 0)
    )


# Live states the vector engine may hold after a merge; past it the sum
# raises MemoryError instead of exhausting the machine.
_STATE_CAP = 60_000_000


class _SortedAccumulator:
    """Key-sorted arrays of (value rows, counts) merged incrementally.

    Incoming chunks are deduplicated by a local sort, then folded into
    the accumulator with searchsorted plus a single insert, so memory
    never holds more than the accumulator, one pending batch, and the
    insert copy.  A full argsort over all transitions of a step would
    transiently need several times that."""

    def __init__(self, np_mod, ns: int, with_counts: bool) -> None:
        self._np = np_mod
        self._ns = ns
        self._with_counts = with_counts
        self.keys = np_mod.empty(0, dtype=np_mod.int64)
        self.vals = np_mod.empty((0, ns), dtype=np_mod.complex128)
        self.cnts = np_mod.empty(0, dtype=np_mod.int64) if with_counts else None
        self._pend_k: list = []
        self._pend_v: list = []
        self._pend_c: list = []
        self._pend_rows = 0

    def add(self, keys, vals, cnts) -> None:
        self._pend_k.append(keys)
        self._pend_v.append(vals)
        if self._with_counts:
            self._pend_c.append(cnts)
        self._pend_rows += len(keys)
        if self._pend_rows >= 8_000_000:
            self.flush()

    def flush(self) -> None:
        if not self._pend_rows:
            return
        np = self._np
        pk = np.concatenate(self._pend_k)
        pv = np.concatenate(self._pend_v)
        pc = np.concatenate(self._pend_c) if self._with_counts else None
        self._pend_k, self._pend_v, self._pend_c, self._pend_rows = [], [], [], 0
        order = np.argsort(pk, kind="stable")
        pk = pk[order]
        starts = np.nonzero(np.concatenate(([True], pk[1:] != pk[:-1])))[0]
        pk = pk[starts]
        pv = np.add.reduceat(pv[order], starts, axis=0)
        if self._with_counts:
            pc = np.add.reduceat(pc[order], starts)
        pos = np.searchsorted(self.keys, pk)
        if len(self.keys):
            hit = (pos < len(self.keys)) & (
                self.keys[np.minimum(pos, len(self.keys) - 1)] == pk
            )
        else:
            hit = np.zeros(len(pk), dtype=bool)
        if hit.any():
            self.vals[pos[hit]] += pv[hit]
            if self._with_counts:
                self.cnts[pos[hit]] += pc[hit]
        miss = ~hit
        if miss.any():
            where = pos[miss]
            self.keys = np.insert(self.keys, where, pk[miss])
            self.vals = np.insert(self.vals, where, pv[miss], axis=0)
            if self._with_counts:
                self.cnts = np.insert(self.cnts, where, pc[miss])
        if len(self.keys) > _STATE_CAP:
            raise MemoryError(
                f"frontier exceeded {_STATE_CAP} states ({len(self.keys)})"
            )


def _vector_tables(np, r: int, s_values: tuple[int, ...]):
    """Admissibility and weight lookup tables for the vector engine."""
    from itertools import product as iproduct

    k = r - 1
    ns = len(s_values)
    edge_tab = np.array(
        [[_edge_weight(i, r).evaluate(s) for s in s_values] for i in range(k)],
        dtype=np.complex128,
    ).reshape(k, ns)
    face_adm = np.zeros((k, k, k), dtype=bool)
    face_tab = np.zeros((k, k, k, ns), dtype=np.complex128)
    for tri in iproduct(range(k), repeat=3):
        if admissible_triple(*tri, r):
            face_adm[tri] = True
            w = _face_weight(*tri, r)
            face_tab[tri] = [w.evaluate(s) for s in s_values]
    tet_tab = np.zeros((k,) * 6 + (ns,), dtype=np.complex128)
    for tup in iproduct(range(k), repeat=6):
        i, j, kk, l, m, n = tup
        if (
            admissible_triple(i, j, kk, r)
            and admissible_triple(i, m, n, r)
            and admissible_triple(j, l, n, r)
            and admissible_triple(kk, l, m, r)
        ):
            w = _tet_weight(*tup, r)
            tet_tab[tup] = [w.evaluate(s) for s in s_values]
    return edge_tab, face_adm, face_tab, tet_tab


def _run_frontier_vector(
    sched: _Schedule,
    r: int,
    even_only: bool,
    s_values: tuple[int, ...],
    tables,
    pins: dict[int, int] | None = None,
    peak_out: list | None = None,
) -> tuple[dict[int, complex], int]:
    """Float-path frontier sum vectorized over states: base-(r-1) packed
    int64 keys and one complex column per requested s, weights read from
    tables (see _vector_tables).  With empty s_values the sweep carries an
    int64 count column instead (count-only probe).  Parents stream through
    in slices and are released before the final merge of a step, so peak
    memory is a small multiple of bytes per live state.  pins fixes chosen
    edge colors, restricting the sweep to that slice of the coloring set;
    summing over all pin colors recovers the full sum while dividing the
    live state count.  Raises MemoryError past _STATE_CAP live states
    instead of exhausting the machine."""
    import numpy as np

    k = r - 1
    slice_rows = 2_000_000
    max_width = max((len(a) for a in sched.active_after), default=0)
    if k ** max(max_width, 1) > 2 ** 62:
        raise ValueError(f"frontier too wide to pack: {max_width} edges at base {k}")
    allowed = color_range(r, even_only)
    pins = pins or {}
    ns = len(s_values)
    edge_tab, face_adm, face_tab, tet_tab = tables
    with_counts = ns == 0

    keys = np.zeros(1, dtype=np.int64)
    vals = np.ones((1, ns), dtype=np.complex128)
    cnts = np.ones(1, dtype=np.int64) if with_counts else None
    for p, e in enumerate(sched.order):
        before_pos = sched.before_index[p]
        after = sched.active_after[p]
        acc = _SortedAccumulator(np, ns, with_counts)
        n_rows = len(keys)
        colors = (pins[e],) if e in pins else allowed
        for lo in range(0, n_rows, slice_rows):
            sl = slice(lo, lo + slice_rows)
            sk, sv = keys[sl], vals[sl]
            sc = cnts[sl] if with_counts else None
            if lo + slice_rows >= n_rows:
                keys = vals = cnts = None
            digit_cache: dict[int, object] = {}

            def digit(eid):
                if eid not in digit_cache:
                    digit_cache[eid] = (sk // k ** before_pos[eid]) % k
                return digit_cache[eid]

            for x in colors:
                mask = None
                for f in sched.face_checks[p]:
                    d = [x if eid == e else digit(eid) for eid in f]
                    adm = face_adm[d[0], d[1], d[2]]
                    mask = adm if mask is None else mask & adm
                if mask is None:
                    idx = np.arange(len(sk))
                else:
                    if not mask.any():
                        continue
                    idx = np.nonzero(mask)[0]

                def cdigit(eid):
                    return x if eid == e else digit(eid)[idx]

                if ns:
                    mult = np.broadcast_to(edge_tab[x], (len(idx), ns)).copy()
                    for f in sched.face_checks[p]:
                        mult *= face_tab[cdigit(f[0]), cdigit(f[1]), cdigit(f[2])]
                    for slots in sched.tet_checks[p]:
                        d = [cdigit(eid) for eid in slots]
                        mult *= tet_tab[d[0], d[1], d[2], d[3], d[4], d[5]]
                    new_vals = sv[idx] * mult
                else:
                    new_vals = np.empty((len(idx), 0), dtype=np.complex128)
                new_keys = np.zeros(len(idx), dtype=np.int64)
                for q, eid in enumerate(after):
                    new_keys += np.int64(k) ** q * (
                        np.int64(x) if eid == e else digit(eid)[idx]
                    )
                acc.add(new_keys, new_vals, sc[idx] if with_counts else None)
            del sk, sv, sc
            digit_cache.clear()
        acc.flush()
        keys, vals, cnts = acc.keys, acc.vals, acc.cnts
        if peak_out is not None:
            peak_out.append(len(keys))
        if not len(keys):
            return {s: 0j for s in s_values}, 0
    grands = {s: complex(vals[0, col]) for col, s in enumerate(s_values)}
    return grands, int(cnts[0]) if with_counts else 0


_GRAND_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_FLOAT_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _vector_grand_sums(
    t: Triangulation, r: int, even_only: bool, reps: tuple[int, ...]
) -> tuple[dict[int, complex], int]:
    """Grand sums at every representative s via the vector engine,
    sized to the machine: a count-only probe measures the live state
    peak; if a direct multi-column sweep will not fit the memory budget,
    the sum is conditioned on the colors of one or more long-lived
    frontier edges (branch sums add up exactly), and the s columns are
    batched to keep bytes per state row bounded."""
    import numpy as np
    from itertools import product as iproduct

    budget = 650_000_000
    safety = 2.6
    allowed = color_range(r, even_only)
    sched = _Schedule(t)
    tables = _vector_tables(np, r, reps)
    edge_tab, face_adm, face_tab, tet_tab = tables
    ns = len(reps)

    def sliced(lo: int, hi: int):
        return (
            np.ascontiguousarray(edge_tab[:, lo:hi]),
            face_adm,
            np.ascontiguousarray(face_tab[..., lo:hi]),
            np.ascontiguousarray(tet_tab[..., lo:hi]),
        )

    def fit_rows(nb: int) -> int:
        return int(budget / ((8 + 16 * nb) * safety))

    probe_tables = sliced(0, 0)
    pos = {e: i for i, e in enumerate(sched.order)}
    peaks: list[int] = []
    _, count = _run_frontier_vector(
        sched, r, even_only, (), probe_tables, peak_out=peaks
    )
    branch_peak = max(peaks, default=0)
    pin_edges: list[int] = []
    while int(branch_peak * 1.3) > fit_rows(1):
        if len(pin_edges) >= 4:
            raise MemoryError(
                f"state sum too wide even with {len(pin_edges)} pinned edges "
                f"(branch peak {branch_peak} states)"
            )
        p_star = peaks.index(max(peaks))
        candidates = [
            e for e in sched.active_after[p_star] if e not in pin_edges
        ]
        if not candidates:
            raise MemoryError("no conditioning edge available at the peak step")
        pin_edges.append(min(candidates, key=pos.__getitem__))
        peaks = []
        _run_frontier_vector(
            sched, r, even_only, (), probe_tables,
            pins={e: allowed[0] for e in pin_edges}, peak_out=peaks,
        )
        branch_peak = max(peaks, default=0)
    nb = next(
        n for n in range(ns, 0, -1) if int(branch_peak * 1.3) <= fit_rows(n)
    )
    grands: dict[int, complex] = {}
    for lo in range(0, ns, nb):
        hi = min(lo + nb, ns)
        sub_s = reps[lo:hi]
        sub_tables = sliced(lo, hi)
        if pin_edges:
            total = {s: 0j for s in sub_s}
            for combo in iproduct(allowed, repeat=len(pin_edges)):
                g, _ = _run_frontier_vector(
                    sched, r, even_only, sub_s, sub_tables,
                    pins=dict(zip(pin_edges, combo)),
                )
                for s in sub_s:
                    total[s] += g[s]
            grands.update(total)
        else:
            g, _ = _run_frontier_vector(sched, r, even_only, sub_s, sub_tables)
            grands.update(g)
    return grands, count


def _float_grand_sum(t: Triangulation, r: int, even_only: bool, s: int) -> tuple[complex, int]:
    """Grand sum evaluated at s on the float path, cached per
    triangulation: one vectorized computation covers every evaluation
    class, so asking for further s values is free."""
    per_tri = _FLOAT_CACHE.setdefault(t, {})
    key = (r, even_only)
    if key not in per_tri:
        reps = _coprime_representatives(r, even_only)
        try:
            per_tri[key] = _vector_grand_sums(t, r, even_only, reps)
        except ImportError:
            grand, count = _run_frontier(
                _Schedule(t), r, even_only, evaluator=lambda w: w.evaluate(s), zero=0j
            )
            return grand, count
    grands, count = per_tri[key]
    s_norm = s % (2 * r)
    if s_norm < r:
        return grands[s_norm], count
    return grands[2 * r - s_norm].conjugate(), count


def _exact_grand_sum(
    t: Triangulation, r: int, even_only: bool, jobs: int
) -> tuple[CycloNum, int]:
    """Exact grand sum and coloring count, cached per triangulation.  With
    jobs > 1 the sum splits over the colors of the first assigned edge,
    one branch per pool task; the branches add up to the same CycloNum."""
    per_tri = _GRAND_CACHE.setdefault(t, {})
    key = (r, even_only)
    if key not in per_tri:
        sched = _Schedule(t)
        if jobs > 1:
            pins = color_range(r, even_only)
            with multiprocessing.Pool(min(jobs, len(pins))) as pool:
                parts = pool.starmap(_pinned_exact, [(sched, r, even_only, x) for x in pins])
            total = CycloNum.zero(r)
            count = 0
            for val, cnt in parts:
                total = total + val
                count += cnt
            per_tri[key] = (total, count)
        else:
            per_tri[key] = _run_frontier(
                sched, r, even_only, evaluator=lambda w: w, zero=CycloNum.zero(r)
            )
    return per_tri[key]


def _pinned_exact(sched: _Schedule, r: int, even_only: bool, pin: int) -> tuple[CycloNum, int]:
    return _run_frontier(sched, r, even_only, evaluator=lambda w: w, zero=CycloNum.zero(r), pin_first=pin)


def _prefactor(r: int, refined: bool) -> CycloNum:
    w = CycloNum.zeta_pow(r, 1) - CycloNum.zeta_pow(r, 2 * r - 1)
    denom = Fraction(-1, r if refined else 2 * r)
    return w * w * denom


def _finish(raw: complex, r: int, s: int, refined: bool, count: int) -> StateSumResult:
    if abs(raw.imag) >= 1e-9 * (1 + abs(raw)):
        raise ArithmeticError(f"state sum lost reality: {raw!r}")
    return StateSumResult(
        value=raw.real, raw=raw, r=r, s=s, refined=refined, coloring_count=count
    )


def _state_sum(
    t: Triangulation, r: int, s: int, refined: bool, method: str, jobs: int
) -> StateSumResult:
    if r < 3:
        raise ValueError(f"level must satisfy r >= 3, got {r}")
    if math.gcd(s, r) != 1:
        raise ValueError(f"s={s} must be coprime to r={r}")
    if refined:
        if r % 2 == 0:
            raise ValueError("refined invariant requires odd r")
        if s % 2:
            raise ValueError("refined invariant requires even s")
    if method == "exact":
        grand, count = _exact_grand_sum(t, r, refined, jobs)
        total = _prefactor(r, refined) ** t.vertex_count * grand
        raw = total.evaluate(s)
    elif method == "float":
        # ~1e-12 relative per-term rounding; integrality checks need "exact".
        pre = _prefactor(r, refined).evaluate(s) ** t.vertex_count
        grand, count = _float_grand_sum(t, r, refined, s)
        raw = pre * grand
    else:
        raise ValueError(f"unknown method {method!r}; use 'exact' or 'float'")
    return _finish(raw, r, s, refined, count)


def tv(t: Triangulation, r: int, s: int, *, method: str = "exact", jobs: int = 1) -> StateSumResult:
    """TV_{r,s}: prefactor ((zeta - zeta^-1)^2 / (-2r))^|V| times the grand
    sum over all admissible colorings, evaluated at zeta = e^(i pi s/r)."""
    return _state_sum(t, r, s, refined=False, method=method, jobs=jobs)


def tv_prime(t: Triangulation, r: int, s: int, *, method: str = "exact", jobs: int = 1) -> StateSumResult:
    """TV'_{r,s}: denominator -r and colorings restricted to even colors;
    defined for odd r and even s coprime to r."""
    return _state_sum(t, r, s, refined=True, method=method, jobs=jobs)
