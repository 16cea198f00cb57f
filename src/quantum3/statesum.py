"""Turaev-Viro state sums TV_{r,s} and TV'_{r,s} over a closed triangulation.

Weights follow the standard normalization: an edge of color i carries
(-1)^i [i+1]; a face with colors (i, j, k) and half-sum S carries
(-1)^S [S-i]! [S-j]! [S-k]! / [S+1]!; a tetrahedron carries the
alternating z-sum of [z+1]! over the products of the face half-sums T_a
and the square half-sums Q_b.  Terms with z > r-2 always vanish because
[z+1]! then contains the zero quantum integer [r], so the z range is
capped at r-2; the denominator arguments stay within 0..r-2 for
admissible colors.

Colorings are never enumerated individually: edges are assigned in the
greedy face-completing order and partial sums are merged over the colors
of edges whose faces and tetrahedra are all complete, which collapses
the exponential stream to a frontier of active edges.  One vectorized
frontier engine does this over int64 keys, with one value column per
evaluation point, and one function (_grand_sum) with one cache serves
both arithmetic domains.  It builds the weights once per grand sum and
lays each domain's values out in the same dense face and tetrahedron
tables.  The float path carries complex values at
zeta = e^(i pi s/r).  The exact path carries int64 residues modulo
primes p = 1 (mod 2r) at the roots of the coefficient ring mod p, one
prime per sweep, and recovers the grand sum as one CycloNum by CRT and
rational reconstruction (see cyclo._ResidueImage); it is evaluated once
per s.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from weakref import WeakKeyDictionary

from quantum3.complex3 import (
    Coloring,
    Triangulation,
    admissible_triple,
    color_range,
    greedy_edge_order,
)
from quantum3.cyclo import (
    CycloNum,
    _height_bits,
    _inv_quantum_factorial,
    _residue_primes,
    _residues,
    _ResidueImage,
    _root_exponents,
    quantum_factorial,
    quantum_int,
)


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
        self.last_use = last_use
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

        # Key slot of every edge that outlives its own step, held from its
        # assignment to its retirement.  Assigning by start time and
        # reusing the lowest freed slot (a retiring edge frees its slot to
        # the edge assigned at the same step) colors the interval graph
        # optimally, so slot_count is the peak frontier width.
        self.slot: dict[int, int] = {}
        self.slot_count = 0
        free: list[int] = []
        for p, e in enumerate(order):
            before = self.active_after[p - 1] if p else ()
            for x in before:
                if x not in self.active_after[p]:
                    heapq.heappush(free, self.slot[x])
            if e in self.active_after[p]:
                if not free:
                    free.append(self.slot_count)
                    self.slot_count += 1
                self.slot[e] = heapq.heappop(free)


def _coprime_representatives(r: int, even_only: bool) -> tuple[int, ...]:
    """Representatives 1 <= s <= r-1 of the evaluation classes: every
    admissible s is congruent mod 2r to some representative or to the
    conjugate 2r - representative."""
    return tuple(
        s for s in range(1, r) if math.gcd(s, r) == 1 and (not even_only or s % 2 == 0)
    )


# Bytes a vector sweep may plan for; its row limit is sized against it.
_MEMORY_BUDGET = 650_000_000


def _key_bits(sched: _Schedule, n_colors: int) -> int:
    """Bits per key slot for color indices 0..n_colors-1; raises
    ValueError when sched.slot_count slots do not fit an int64 key."""
    bits = max(1, (n_colors - 1).bit_length())
    if bits * sched.slot_count > 62:
        raise ValueError(
            f"frontier too wide to pack: {sched.slot_count} slots of {bits} bits"
        )
    return bits


def _sort_reduce(np, keys, vals, cnts, modulus):
    """Rows sorted by key, rows with equal keys summed in input order
    (and reduced mod modulus, unless it is None).

    Pass freshly made arrays, held by no other name: each input is then
    freed as soon as its sorted or reduced form exists."""
    if (keys[1:] > keys[:-1]).all():
        return keys, vals, cnts
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    new_key = keys[1:] != keys[:-1]
    if new_key.all():
        return keys, vals.take(order, axis=0), cnts.take(order)
    starts = np.flatnonzero(np.concatenate(([True], new_key)))
    del new_key
    out = np.empty((len(starts), vals.shape[1]), dtype=vals.dtype)
    for c in range(vals.shape[1]):
        out[:, c] = np.add.reduceat(vals[:, c].take(order), starts)
    del vals
    if modulus is not None:
        out %= modulus
    cnts = np.add.reduceat(cnts.take(order), starts)
    return keys.take(starts), out, cnts


def _drain(np, chunks: list):
    """The chunks concatenated; the list is emptied so they can be freed."""
    out = np.concatenate(chunks)
    chunks.clear()
    return out


class _SortedAccumulator:
    """The transitions of one frontier step, merged once.

    add() sorts each batch by key and sums its rows with equal keys, so
    every batch is kept as a sorted run with unique keys.  flush()
    concatenates the runs, dropping each list of runs as soon as it is
    copied, then does one stable sort (timsort merges the presorted runs)
    and one reduceat.  Value columns of dtype int64 are residues, reduced
    mod modulus after every sum."""

    def __init__(self, np_mod, ns: int, dtype, modulus: int | None) -> None:
        self._np = np_mod
        self._ns = ns
        self._dtype = dtype
        self._modulus = modulus
        self._keys: list = []
        self._vals: list = []
        self._cnts: list = []

    def add(self, keys, vals, cnts) -> None:
        keys, vals, cnts = _sort_reduce(self._np, keys, vals, cnts, self._modulus)
        self._keys.append(keys)
        self._vals.append(vals)
        self._cnts.append(cnts)

    def flush(self):
        """(keys, vals, cnts) of the step: sorted unique int64 keys, an
        (n, ns) value array and int64 coloring counts."""
        np = self._np
        if not self._keys:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, self._ns), dtype=self._dtype),
                np.empty(0, dtype=np.int64),
            )
        return _sort_reduce(
            np,
            _drain(np, self._keys),
            _drain(np, self._vals),
            _drain(np, self._cnts),
            self._modulus,
        )


def _weight_rows(np, r: int, colors: tuple[int, ...]):
    """The vector engine's weights as CycloNums, by color-index digits.

    Returns the edge weights per color index, the face admissibility
    mask over the nc^3 digit triples, and for faces and tetrahedra the
    flat positions of the admissible digit tuples (over nc^3 and nc^6)
    with their weights, in the same order."""
    from itertools import product as iproduct

    nc = len(colors)
    face_adm = np.array(
        [admissible_triple(*tri, r) for tri in iproduct(colors, repeat=3)]
    ).reshape(nc, nc, nc)
    # Tetrahedron (i, j, k, l, m, n) has faces (i, j, k), (i, m, n),
    # (j, l, n) and (k, l, m); each term below places one on its axes.
    tet_adm = (
        face_adm[:, :, :, None, None, None]
        & face_adm[:, None, None, None, :, :]
        & face_adm[None, :, None, :, None, :]
        & face_adm[None, None, :, :, :, None]
    )

    def rows(adm, weight):
        flat = np.flatnonzero(adm)
        digits = zip(*(d.tolist() for d in np.unravel_index(flat, adm.shape)))
        return flat, [weight(*(colors[d] for d in tup), r) for tup in digits]

    edges = [_edge_weight(i, r) for i in colors]
    return edges, face_adm.ravel(), rows(face_adm, _face_weight), rows(tet_adm, _tet_weight)


def _vector_tables(np, rows, ns: int, dtype, column):
    """Lookup tables for the vector engine from the weight rows of
    _weight_rows, indexed by color-index digits: (edge_tab, face_adm,
    face_tab, tet_tab), with face_tab and tet_tab dense over the nc^3 and
    nc^6 digit tuples and zero where a tuple is inadmissible.  column maps
    one weight to its ns values of the given dtype: complex values at
    zeta = e^(i pi s/r), or residues (_residue_column)."""
    edges, face_adm, faces, tets = rows
    nc = len(edges)

    def table(weights):
        return np.array([column(w) for w in weights], dtype=dtype).reshape(
            len(weights), ns
        )

    def dense(size, flat, weights):
        out = np.zeros((size, ns), dtype=dtype)
        out[flat] = table(weights)
        return out

    return table(edges), face_adm, dense(nc**3, *faces), dense(nc**6, *tets)


def _residue_column(r: int, s_values: tuple[int, ...], p: int, omega: int):
    """Column function of the residue tables: the residue mod p of a
    weight at zeta -> omega^s for each s in s_values (each in 1..r-1).
    The residue at the conjugate root omega^(2r - s) is checked to be the
    same, as it must be for weights built from quantum integers: a
    failure raises ArithmeticError."""
    where = {s: k for k, s in enumerate(_root_exponents(r))}
    columns = [where[s] for s in s_values]
    conjugates = [where[2 * r - s] for s in s_values]

    def column(w):
        res = _residues(w, p, omega)
        row = [res[k] for k in columns]
        if row != [res[k] for k in conjugates]:
            raise ArithmeticError(f"weight {w!r} is not fixed by zeta -> 1/zeta mod {p}")
        return row

    return column


def _run_frontier_vector(
    sched: _Schedule,
    r: int,
    even_only: bool,
    s_values: tuple[int, ...],
    tables,
    row_limit: int,
    peak_out: list | None = None,
    modulus: int | None = None,
) -> tuple[dict[int, complex | int], int]:
    """Frontier sum vectorized over states.  Returns the grand sum per
    requested s and the coloring count.

    A state row is an int64 key, an int64 coloring count and one value
    column per s: complex128 when modulus is None, else int64 residues
    mod the prime modulus < 2^31, reduced after every product and every
    sum so that no product passes int64.  Weights are read from tables
    (see _vector_tables), and both domains run the same operations in
    the same order.  The key holds the color index of every frontier
    edge in that edge's bit slot (_Schedule.slot), so a digit is a shift
    and a mask and a child key is (parent & kept slots) | (x << slot of
    the new edge).  Parents stream through in slices, each color of a
    slice becomes one sorted run, and the step ends with one merge
    (_SortedAccumulator.flush).

    A merged frontier of more than row_limit rows is split by the key
    digit of one frontier edge, and each part is carried on from the next
    step, depth-first; the grand sums and counts of the parts add up to
    those of the whole.  The split edge is the frontier edge that retires
    last, ties going to the earliest assigned, among those whose digit is
    not the same in every row: the parts then stay disjoint for as long
    as possible.  Keys are unique, so a frontier of two or more rows has
    such an edge, and a part still over the limit is split again on
    another.  peak_out, when given, receives the live states after every
    step of every part, in the order they run.  Raises ArithmeticError
    before a step whose counts could pass int64."""
    import numpy as np

    colors = color_range(r, even_only)
    nc = len(colors)
    bits = _key_bits(sched, nc)
    digit_mask = (1 << bits) - 1
    shift = {e: bits * q for e, q in sched.slot.items()}
    slice_rows = 2_000_000
    ns = len(s_values)
    edge_tab, adm_flat, face_flat, tet_flat = tables
    dtype = edge_tab.dtype

    def reduce(a) -> None:
        if modulus is not None:
            np.remainder(a, modulus, out=a)

    def sweep(p0: int, frontier: list):
        """Grand-sum columns and coloring count of the rows in frontier,
        [keys, vals, cnts] after step p0 - 1, carried to the last step.
        frontier is emptied, so each array is freed once it is used."""
        keys, vals, cnts = frontier
        frontier.clear()
        for p in range(p0, len(sched.order)):
            e = sched.order[p]
            before = sched.active_after[p - 1] if p else ()
            after = sched.active_after[p]
            # A child count sums parent counts, at most one per (parent,
            # color) pair, so no child can exceed the parents' total count
            # times the number of colors.
            total = int(cnts.sum())
            if total * nc >= 2**63:
                raise ArithmeticError(
                    f"coloring count may pass int64 at step {p} "
                    f"({total} partial colorings times {nc} colors)"
                )
            keep = np.int64(sum(digit_mask << shift[x] for x in before if x in after))
            new_shift = shift[e] if e in after else None
            face_checks = sched.face_checks[p]
            tet_checks = sched.tet_checks[p]
            # The flat table index of a check is base + x * stride: base holds
            # the digits of its older edges, stride places the new edge's.
            face_strides = [nc ** (2 - f.index(e)) for f in face_checks]
            tet_strides = [nc ** (5 - slots.index(e)) for slots in tet_checks]
            acc = _SortedAccumulator(np, ns, dtype, modulus)
            n_rows = len(keys)
            for lo in range(0, n_rows, slice_rows):
                sl = slice(lo, lo + slice_rows)
                sk, sv, sc = keys[sl], vals[sl], cnts[sl]
                if lo + slice_rows >= n_rows:
                    keys = vals = cnts = None
                kept = sk & keep
                digits: dict[int, object] = {}

                def flat_base(check):
                    out = 0
                    for eid in check:
                        if eid == e:
                            out = out * nc
                            continue
                        if eid not in digits:
                            digits[eid] = (sk >> shift[eid]) & digit_mask
                        out = out * nc + digits[eid]
                    return out

                face_base = [flat_base(f) for f in face_checks]
                tet_base = [flat_base(slots) for slots in tet_checks]
                del digits
                for x in range(nc):
                    face_idx = [b + x * w for b, w in zip(face_base, face_strides)]
                    mask = None
                    for fi in face_idx:
                        adm = adm_flat.take(fi)
                        mask = adm if mask is None else mask & adm
                    sel = None
                    if mask is not None:
                        sel = np.flatnonzero(mask)
                        if not len(sel):
                            continue
                        if len(sel) == len(mask):
                            sel = None

                    def pick(a):
                        return a if sel is None else a.take(sel, axis=0)

                    # Factor order edge, faces, tets, parent value, which
                    # fixes the float rounding; one gathered factor at a time,
                    # each residue product reduced before the next.
                    factors = chain(
                        (face_flat.take(pick(fi), axis=0) for fi in face_idx),
                        (
                            tet_flat.take(pick(b) + x * w, axis=0)
                            for b, w in zip(tet_base, tet_strides)
                        ),
                        (pick(sv),),
                    )
                    new_vals = next(factors) * edge_tab[x]
                    for fac in factors:
                        reduce(new_vals)
                        new_vals *= fac
                        del fac
                    reduce(new_vals)
                    del factors, face_idx
                    child = pick(kept)
                    if new_shift is not None:
                        child = child | np.int64(x << new_shift)
                    acc.add(child, new_vals, pick(sc))
                    del child, new_vals
                del sk, sv, sc, kept, face_base, tet_base
            keys, vals, cnts = acc.flush()
            if peak_out is not None:
                peak_out.append(len(keys))
            if not len(keys):
                return np.zeros(ns, dtype=dtype), 0
            if len(keys) > max(row_limit, 1):
                for edge in sorted(
                    after, key=lambda a: (-sched.last_use[a], sched.order.index(a))
                ):
                    digit = (keys >> shift[edge]) & digit_mask
                    if (digit != digit[0]).any():
                        break
                parts = []
                for d in range(nc):
                    rows = np.flatnonzero(digit == d)
                    if len(rows):
                        parts.append(
                            [keys.take(rows), vals.take(rows, axis=0), cnts.take(rows)]
                        )
                del keys, vals, cnts, digit, rows
                grand, count = np.zeros(ns, dtype=dtype), 0
                while parts:
                    part_grand, part_count = sweep(p + 1, parts.pop())
                    grand += part_grand
                    reduce(grand)
                    count += part_count
                return grand, count
        return vals[0], int(cnts[0])

    grand, count = sweep(
        0,
        [
            np.zeros(1, dtype=np.int64),
            np.ones((1, ns), dtype=dtype),
            np.ones(1, dtype=np.int64),
        ],
    )
    return dict(zip(s_values, grand.tolist())), count


_GRAND_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _grand_sum(t: Triangulation, r: int, even_only: bool, exact: bool):
    """Grand sum and coloring count, cached per triangulation under
    (r, even_only, exact).  The sweeps run under the row limit that
    _MEMORY_BUDGET allows, and the engine splits any frontier that passes
    it.  The weight rows are built once and serve every sweep.

    Float: one sweep carries every evaluation class as a complex column,
    so the grand sum is a dict from each representative s (see
    _coprime_representatives) to its complex value.

    Exact: each sweep sums int64 residues modulo one prime p = 1 (mod 2r),
    with one column per root omega^s, s in 1..r-1 prime to r.  Every
    weight is fixed by zeta -> 1/zeta, so the grand sum has the same
    residue at omega^(2r - s), and the columns give its residues at all
    deg M_r roots.  Sweeps with further primes follow until the value
    reconstructed from the earlier primes agrees with the newest one
    (_ResidueImage), and that value is the canonical CycloNum.  The grand
    sum is a sum of count products of one weight per edge, face and
    tetrahedron, which bounds its height (_height_bits), so a fault that
    makes the residues disagree raises ArithmeticError after finitely
    many primes."""
    per_tri = _GRAND_CACHE.setdefault(t, {})
    key = (r, even_only, exact)
    if key in per_tri:
        return per_tri[key]
    import numpy as np

    allowed = color_range(r, even_only)
    sched = _Schedule(t)
    # An unpackable frontier fails here, before any table is built.
    _key_bits(sched, len(allowed))
    reps = _coprime_representatives(r, even_only and not exact)
    # A row is an int64 key, an int64 count and the value columns.  The
    # merge holds the runs, their concatenation and sorted copies at
    # once; safety is the measured peak bytes per byte of merged rows.
    safety = 2.6
    value_bytes = (8 if exact else 16) * len(reps)
    row_limit = int(_MEMORY_BUDGET / ((16 + value_bytes) * safety))
    rows = _weight_rows(np, r, allowed)
    if not exact:
        tables = _vector_tables(
            np, rows, len(reps), np.complex128, lambda w: [w.evaluate(s) for s in reps]
        )
        per_tri[key] = _run_frontier_vector(sched, r, even_only, reps, tables, row_limit)
        return per_tri[key]
    edges, _, (_, face_rows), (_, tet_rows) = rows
    image = None
    for p, omega in _residue_primes(r):
        column = _residue_column(r, reps, p, omega)
        tables = _vector_tables(np, rows, len(reps), np.int64, column)
        grands, count = _run_frontier_vector(
            sched, r, even_only, reps, tables, row_limit, modulus=p
        )
        if image is None:
            groups = [
                (edges, len(t.edges)),
                (face_rows, len(t.face_edges)),
                (tet_rows, len(t.tet_edges)),
            ]
            image = _ResidueImage(r, _height_bits(r, groups, count))
        value = image.add(p, omega, [grands[min(s, 2 * r - s)] for s in _root_exponents(r)])
        if value is not None:
            per_tri[key] = (value, count)
            return per_tri[key]
    raise ArithmeticError(f"no prime below 2^31 certified the grand sum at r={r}")


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
    t: Triangulation, r: int, s: int, refined: bool, method: str
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
    if method not in ("exact", "float"):
        raise ValueError(f"unknown method {method!r}; use 'exact' or 'float'")
    grand, count = _grand_sum(t, r, refined, method == "exact")
    if method == "exact":
        total = _prefactor(r, refined) ** t.vertex_count * grand
        raw = total.evaluate(s)
    else:
        # Measured against exact: at most 2.3e-14 relative on s2xs1 at r=5
        # and 1.7e-14 on the sphere at r=3..7; integrality checks need "exact".
        pre = _prefactor(r, refined).evaluate(s) ** t.vertex_count
        s_norm = s % (2 * r)
        if s_norm < r:
            raw = pre * grand[s_norm]
        else:
            raw = pre * grand[2 * r - s_norm].conjugate()
    return _finish(raw, r, s, refined, count)


def tv(t: Triangulation, r: int, s: int, *, method: str = "exact") -> StateSumResult:
    """TV_{r,s}: prefactor ((zeta - zeta^-1)^2 / (-2r))^|V| times the grand
    sum over all admissible colorings, evaluated at zeta = e^(i pi s/r)."""
    return _state_sum(t, r, s, refined=False, method=method)


def tv_prime(t: Triangulation, r: int, s: int, *, method: str = "exact") -> StateSumResult:
    """TV'_{r,s}: denominator -r and colorings restricted to even colors;
    defined for odd r and even s coprime to r."""
    return _state_sum(t, r, s, refined=True, method=method)
