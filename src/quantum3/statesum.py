"""Turaev-Viro state sums TV_{r,s} and TV'_{r,s} over a closed triangulation.

Weights follow the standard normalization: an edge of color i carries
(-1)^i [i+1]; a face with colors (i, j, k) and half-sum S carries
(-1)^S [S-i]! [S-j]! [S-k]! / [S+1]!; a tetrahedron carries the
alternating z-sum of [z+1]! over the products of the face half-sums T_a
and the square half-sums Q_b.  Terms with z > r-2 always vanish because
[z+1]! then contains the zero quantum integer [r], so the z range is
capped at r-2; the denominator arguments stay within 0..r-2 for
admissible colors.

Colorings are never enumerated individually: edges are assigned in
complex3.edge_order, which keeps the frontier narrow, and partial sums
are merged over the colors of edges whose faces and tetrahedra are all
complete, which collapses the exponential stream to a frontier of
active edges.  One vectorized frontier engine does this over int64
keys, with one value column per evaluation point, and one function
(_grand_sum) with one cache serves both arithmetic domains.  It builds
the weights once per grand sum and lays each domain's values out in the
same tables, faces and tetrahedra alike compact: one row per admissible
color tuple, behind an int32 row map that is -1 where a tuple is
inadmissible.  Weights are built per
class, not per tuple: a face's class is its sorted colors, and a
tetrahedron's is the pair of multisets of its face and square
half-sums, which the tetrahedral and Regge symmetries keep and on which
its z-sum alone depends (_racah; 66 classes for 784 tetrahedra at r=7).
Each class's weight is evaluated and checked once, and every table
entry is a copy of a checked value.  The float path carries float64
values at zeta = e^(i pi s/r), where every weight is real: each class
value is checked for a vanishing imaginary part.  The exact path carries
int64 residues modulo primes p = 1 (mod 2r) at the roots of the
coefficient ring mod p, one prime per sweep, and recovers the grand sum
as one CycloNum by CRT and rational reconstruction (see
cyclo._ResidueImage); it is evaluated once per s.

All-color sums are gauge-fixed.  The flip of a vertex v replaces the
color c of every edge at v by r-2-c; it keeps every face admissible and
every coloring's weight exactly (the c -> r-2-c symmetry behind the
splitting TV_r = TV_3 TV'_r).  The flips act on the colors of the edges
of a spanning forest of the 1-skeleton independently, one forest edge at
a time, so

    sum_c w(c) = sum over c with 2 c_e <= r-2 on every forest edge e of
                 w(c) 2^(number of forest edges with 2 c_e < r-2),

and the coloring count obeys the same formula: a forest edge takes only
its lower colors, doubled, and at even r its self-flipped color (r-2)/2
once.  Refined sums take no forest, as a flip at odd r maps even colors
to odd ones.
"""

from __future__ import annotations

from collections import Counter
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
    edge_order,
    faces_completed_at,
)
from quantum3.cyclo import (
    CycloNum,
    _height_bits,
    _inv_quantum_factorial,
    _residue_primes,
    _residues,
    _ResidueImage,
    _root_exponents,
    check_point,
    evaluation_points,
    quantum_factorial,
    quantum_int,
)


@dataclass(frozen=True)
class StateSumResult:
    """One evaluated invariant; value is the real part of raw after the
    reality check (_unreal), which every float weight-table entry passed."""

    value: float
    raw: complex
    r: int
    s: int
    refined: bool
    coloring_count: int


def _unreal(z):
    """The reality check, elementwise on arrays: |Im z| >= 1e-9 (1 + |z|)."""
    return abs(z.imag) >= 1e-9 * (1 + abs(z))


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


# The slots (i, j, k, l, m, n) = (0..5) of a tetrahedron's four faces,
# (i, j, k), (i, m, n), (j, l, n) and (k, l, m), and of its three squares,
# the opposite pairs (i, l), (j, m), (k, n) taken two at a time.
_TET_FACES = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
_TET_SQUARES = ((0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5))


def _tet_weight(i: int, j: int, k: int, l: int, m: int, n: int, r: int) -> CycloNum:
    """The weight of the tetrahedron with slot colors (i, j, k, l, m, n):
    each face is checked for admissibility, and the z-sum is _racah of the
    sorted face and square half-sums, which the tetrahedral and Regge
    symmetries keep, so all tuples of one class share one evaluation."""
    colors = (i, j, k, l, m, n)
    faces = [(colors[a], colors[b], colors[c]) for a, b, c in _TET_FACES]
    for tri in faces:
        if not admissible_triple(*tri, r):
            raise ValueError(f"tetra face colors {tri} not admissible at r={r}")
    halves = sorted(sum(tri) // 2 for tri in faces)
    squares = sorted(sum(colors[q] for q in sq) // 2 for sq in _TET_SQUARES)
    return _racah(tuple(halves), tuple(squares), r)


@lru_cache(maxsize=None)
def _racah(halves: tuple[int, ...], squares: tuple[int, ...], r: int) -> CycloNum:
    """The alternating z-sum of [z+1]! over the products of [z - T_a]! and
    [Q_b - z]!, for the face half-sums T_a (halves) and the square
    half-sums Q_b (squares) of an admissible tetrahedron, z from max T_a
    to min(min Q_b, r-2).  The sum depends on the two multisets alone, so
    callers pass both sorted, and it is evaluated once per class."""
    out = CycloNum.zero(r)
    for z in range(max(halves), min(min(squares), r - 2) + 1):
        term = quantum_factorial(z + 1, r)
        for t_a in halves:
            term = term * _inv_quantum_factorial(z - t_a, r)
        for q_b in squares:
            term = term * _inv_quantum_factorial(q_b - z, r)
        out = out + (-term if z % 2 else term)
    return out


def coloring_weight(t: Triangulation, c: Coloring) -> CycloNum:
    """The full product weight of one admissible coloring: all edge, face,
    and tetrahedron weights multiplied (faces with edge ids as in
    Triangulation.face_edges, tetrahedra with slot-ordered edge ids as in
    Triangulation.tet_edges)."""
    r = c.level_r
    out = CycloNum.one(r)
    for e in range(len(t.edges)):
        out = out * _edge_weight(c[e], r)
    for f in t.face_edges:
        out = out * _face_weight(*(c[e] for e in f), r)
    for slots in t.tet_edges:
        out = out * _tet_weight(*(c[e] for e in slots), r)
    return out


class _Schedule:
    """Static elimination data for the frontier sum over one triangulation,
    in the assignment order of complex3.edge_order (peak width 9 on the
    sphere and 15 on s2xs1).

    active_after[p] holds the edges live after step p (assigned, with a
    face or tetrahedron still to complete) in the order of their key
    digits, lowest first: by the step where they retire (last_use), ties
    going to the latest assigned.  So the edges that retire at a step hold
    the lowest digits of its parents' keys, and slot_count, the peak
    width, is the number of digits a key needs.

    face_checks[p] and tet_checks[p] hold the faces and tetrahedra that
    complete at step p, and checks[p] is the one list the engine reads:
    (edge ids, kind) pairs.  One rule places every weight: each face
    weight and each edge weight rides on the table of the first
    tetrahedron to complete that holds it (ties in tet_checks order).  A
    face is matched to a slot triple as an edge multiset (face weights are
    symmetric), and an edge that fills two slots is carried once.  A face
    that completes before any tetrahedron holding it does is a loose check
    (kind None) at its step: it masks rows, and its weight rides on that
    later tetrahedron.  So checks[p] lists the loose faces, then the
    tetrahedra, each with kind (tris, slots): the slot triples of the
    faces and the slots of the edges it carries.  An edge in no
    tetrahedron (never one of a Triangulation) carries no weight."""

    def __init__(self, t: Triangulation):
        order = edge_order(t)
        pos = {e: p for p, e in enumerate(order)}
        n = len(order)
        self.order = order
        self.face_checks = [
            [t.face_edges[f] for f in ids] for ids in faces_completed_at(t, order)
        ]
        self.tet_checks = [[] for _ in range(n)]
        for slots in t.tet_edges:
            self.tet_checks[max(pos[e] for e in slots)].append(slots)
        last_use = dict(pos)
        for p, (faces, tets) in enumerate(zip(self.face_checks, self.tet_checks)):
            for e in chain(*faces, *tets):
                last_use[e] = max(last_use[e], p)
        self.last_use = last_use
        self.active_after = [
            tuple(
                sorted(
                    (e for e in order[: p + 1] if last_use[e] > p),
                    key=lambda e: (last_use[e], -pos[e]),
                )
            )
            for p in range(n)
        ]
        self.slot_count = max(map(len, self.active_after))

        faces_left = Counter(tuple(sorted(f)) for f in t.face_edges)
        edges_left = set(chain(*t.tet_edges))
        self.checks: list[list[tuple]] = []
        for faces, tets in zip(self.face_checks, self.tet_checks):
            held = []
            for slots in tets:
                tris = []
                for tri in _TET_FACES:
                    tris += [tri] * faces_left.pop(tuple(sorted(slots[q] for q in tri)), 0)
                # An edge that fills two slots rides on the first.
                carried = tuple(slots.index(e) for e in dict.fromkeys(slots) if e in edges_left)
                edges_left.difference_update(slots)
                held.append((slots, (tuple(tris), carried)))
            # A face that completes here is loose unless one of this step's
            # tetrahedra carries it.
            loose = [(f, None) for f in faces if tuple(sorted(f)) in faces_left]
            self.checks.append(loose + held)


# Bytes of the rows that one frontier step may build: the row limit of a
# sweep is this over the bytes of one row.  It is sized to the step, not
# to memory: small steps keep their gathers and sorts in cache.  On
# gauge-fixed all-color float s2xs1 (one tv call in a fresh process, two
# runs each on a shared 2-core machine), steps of 4 to 64 MiB took 0.16
# to 0.25 s at r=6 and, from 8 MiB up, 0.25 to 0.43 s at r=7 with no
# trend (4 MiB: 0.58 s at r=7), while max RSS rose from 34 to 39 MB and
# from 36 to 63 MB.
_STEP_BYTES = 16 << 20


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
    (and reduced mod modulus, unless it is None).  Keys that arrive in
    non-decreasing order, as every color batch of a frontier step does,
    are summed where they lie, with no sort; the engine reduces each
    batch so, and _merge the concatenated runs of a step or a split.

    An input held by no other name is freed as soon as its sorted or
    reduced form exists.  None is written to, so a batch may pass its
    parents' own values or counts."""
    order = None
    if not (keys[1:] >= keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys = keys.take(order)

    def ordered(a):
        return a if order is None else a.take(order, axis=0)

    new_key = keys[1:] != keys[:-1]
    if new_key.all():
        return keys, ordered(vals), ordered(cnts)
    starts = np.flatnonzero(np.concatenate(([True], new_key)))
    del new_key
    out = np.empty((len(starts), vals.shape[1]), dtype=vals.dtype)
    for c in range(vals.shape[1]):
        out[:, c] = np.add.reduceat(ordered(vals[:, c]), starts)
    del vals
    if modulus is not None:
        out %= modulus
    cnts = np.add.reduceat(ordered(cnts), starts)
    return keys.take(starts), out, cnts


def _merge(np, runs: list, modulus, step: int):
    """The rows of the runs merged into one frontier by _sort_reduce; the
    list is emptied.  A run is (keys, vals, cnts, mult): a step's reduced
    color batch, or a part of a split with mult 1 (see
    _run_frontier_vector); there is at least one, and empty runs are
    fine.  Each column's runs are freed once the column is concatenated.

    This is the one place a multiplier is applied: a forest edge's color
    x stands for mult = gauge_mult[x] colorings (1 or 2), so its run's
    values (reduced mod modulus, unless it is None) and counts are scaled
    by mult in the concatenated copy, before any sum across runs.  A run
    may share its arrays with the caller, such as a batch holding its
    parents' values at a step with no check; those arrays are not
    written to.

    This is also the engine's one count check.  A child's count is its
    parent's count, and a color batch sums its rows with equal keys
    before its multiplier is applied, so within a batch counts stay
    bounded by the parents' total that the last merge checked.  Here the
    runs' totals times their multipliers are summed as Python ints first,
    and a total that passes int64 raises ArithmeticError naming the step
    before any run is scaled; after that no scaled run and no sum of rows
    can pass int64."""
    total = sum(mult * int(cnts.sum()) for *_, cnts, mult in runs)
    if total >= 2**63:
        raise ArithmeticError(
            f"coloring count passes int64 at step {step} ({total} partial colorings)"
        )
    keys, vals, cnts, mults = (list(column) for column in zip(*runs))
    runs.clear()
    ends = np.cumsum([0, *map(len, keys)]).tolist()
    spans = [(lo, hi, mult) for lo, hi, mult in zip(ends, ends[1:], mults) if mult != 1]

    def join(chunks, spans=(), mod=None):
        """The chunks concatenated, the list emptied so that they can be
        freed; the rows of each span (lo, hi, mult) are times mult in the
        copy, reduced mod mod unless it is None."""
        out = np.concatenate(chunks)
        chunks.clear()
        for lo, hi, mult in spans:
            out[lo:hi] *= mult
            if mod is not None:
                np.remainder(out[lo:hi], mod, out=out[lo:hi])
        return out

    return _sort_reduce(np, join(keys), join(vals, spans, modulus), join(cnts, spans), modulus)


def _weight_rows(np, r: int, colors: tuple[int, ...]):
    """The vector engine's weights as CycloNums, by color-index digits.

    Returns the edge weights per color index, and for faces and
    tetrahedra (flat positions, class index, class weights): the flat
    positions of the admissible digit tuples (over nc^3 and nc^6), for
    each the index of its class, and one weight per class.  A face's
    class is its sorted colors, a tetrahedron's its sorted face and
    square half-sums (_racah), so each class weight is built once: 66
    tetrahedron classes for 784 tuples at r=7, 457 for 10,648 at r=11."""
    from itertools import product as iproduct

    nc = len(colors)
    face_adm = np.array(
        [admissible_triple(*tri, r) for tri in iproduct(colors, repeat=3)]
    ).reshape(nc, nc, nc)
    # Each face of _TET_FACES places face_adm on its (ascending) slot axes.
    tet_adm = np.ones((nc,) * 6, dtype=bool)
    for tri in _TET_FACES:
        tet_adm &= np.expand_dims(face_adm, tuple(q for q in range(6) if q not in tri))

    def rows(adm, key, weight):
        flat = np.flatnonzero(adm)
        c = np.asarray(colors)[np.stack(np.unravel_index(flat, adm.shape), axis=1)]
        classes, index = np.unique(key(c), axis=0, return_inverse=True)
        # numpy 2.0 shapes the inverse of an axis=0 unique; flatten it.
        return flat, index.reshape(-1), [weight(cls) for cls in classes.tolist()]

    def tet_key(c):
        """_tet_weight's sorted half-sums, row by row."""

        def half_sums(groups):
            return np.sort(np.stack([c[:, g].sum(axis=1) // 2 for g in groups], axis=1), axis=1)

        return np.concatenate((half_sums(_TET_FACES), half_sums(_TET_SQUARES)), axis=1)

    edges = [_edge_weight(i, r) for i in colors]
    return (
        edges,
        rows(face_adm, lambda c: np.sort(c, axis=1), lambda tri: _face_weight(*tri, r)),
        rows(tet_adm, tet_key, lambda key: _racah(tuple(key[:4]), tuple(key[4:]), r)),
    )


def _vector_tables(np, rows, domain):
    """Lookup tables for the vector engine from the weight rows of
    _weight_rows, indexed by color-index digits: (edge_tab, face_tab,
    face_row, tet_tab, tet_row, modulus).  face_tab and tet_tab hold one
    row per admissible digit tuple of a face and of a tetrahedron;
    face_row and tet_row map the nc^3 and nc^6 digit tuples to those rows
    as int32, -1 where a tuple is inadmissible (so rows >= 0 is the
    admissibility mask).

    domain is a (column, modulus) pair from _float_column or
    _residue_column.  column maps a list of weights to an (n, ns) array,
    one row per weight and one column per evaluation point: float64
    values at zeta = e^(i pi s/r), or int64 residues mod the prime
    modulus; each checks every entry it makes.  column runs once per
    class of faces and of tetrahedra, and every table row is a copy of
    its class's checked row.  modulus (None for float) is passed on in
    the tables, so the tables alone tell the engine what it sums."""
    column, modulus = domain
    edges, (face_flat, face_class, face_weights), (tet_flat, tet_class, tet_weights) = rows
    nc = len(edges)

    def row_map(flat, size):
        out = np.full(size, -1, dtype=np.int32)
        out[flat] = np.arange(len(flat), dtype=np.int32)
        return out

    return (
        column(edges),
        column(face_weights)[face_class],
        row_map(face_flat, nc**3),
        column(tet_weights)[tet_class],
        row_map(tet_flat, nc**6),
        modulus,
    )


def _float_column(s_values: tuple[int, ...]):
    """The float domain of _vector_tables: (column, None), column giving
    the value of each weight at zeta = e^(i pi s/r) for each s in
    s_values, as float64.  Weights built from quantum integers are real
    there, so every entry is checked once (_unreal); a failure raises
    ArithmeticError naming the weight and s."""

    def column(weights):
        import numpy as np

        z = np.array([[w.evaluate(s) for s in s_values] for w in weights])
        unreal = _unreal(z)
        if unreal.any():
            i, k = np.argwhere(unreal)[0]
            raise ArithmeticError(
                f"weight {weights[i]!r} is not real at s={s_values[k]}: {complex(z[i, k])!r}"
            )
        return np.ascontiguousarray(z.real)

    return column, None


def _residue_column(r: int, s_values: tuple[int, ...], p: int, omega: int):
    """The residue domain of _vector_tables: (column, p), column giving
    the int64 residues mod p of each weight at zeta -> omega^s for each s
    in s_values (each in 1..r-1).  Every weight's residues at the
    conjugate roots omega^(2r - s) are checked to be the same, as they
    must be for weights built from quantum integers: a failure raises
    ArithmeticError."""
    where = {s: k for k, s in enumerate(_root_exponents(r))}
    columns = [where[s] for s in s_values]
    conjugates = [where[2 * r - s] for s in s_values]

    def column(weights):
        res = _residues(weights, p, omega)
        bent = (res[:, columns] != res[:, conjugates]).any(axis=1)
        if bent.any():
            w = weights[int(bent.argmax())]
            raise ArithmeticError(f"weight {w!r} is not fixed by zeta -> 1/zeta mod {p}")
        return res[:, columns]

    return column, p


def _run_frontier_vector(
    sched: _Schedule,
    s_values: tuple[int, ...],
    tables,
    peak_out: list | None = None,
    forest: frozenset[int] = frozenset(),
) -> tuple[dict[int, complex | int], int]:
    """Frontier sum vectorized over states.  Returns the grand sum per
    requested s and the coloring count.

    Weights are read from tables (see _vector_tables), one edge-table row
    per color and one column per s, and the tables fix the domain: a
    state row is an int64 key, an int64 coloring count and one value per
    column, float64 when the tables' modulus is None (the weights are
    real at every s, see _float_column), else int64 residues mod the
    prime modulus < 2^31, reduced after every product and every sum so
    that no product passes int64.  Both domains run the same operations
    in the same order.  s_values names the columns in order; a length
    other than the column count raises ValueError.

    forest holds the ids of the spanning-forest edges of an all-color sum
    (tables over the colors 0..r-2, so a digit is its color; see the
    module docstring and _spanning_forest).  At the step of a forest edge
    only the colors x with 2x <= r-2 are visited, and where 2x < r-2 the
    color's multiplier is 2.  One list, gauge_mult, gives the
    multipliers, and one rule applies them: the merge of the step
    (_merge) scales a forest color's values and counts by its
    multiplier, before any sum across the edge's colors.  An empty forest
    sums every coloring.

    The key holds the color index of every frontier edge as one digit, in
    the order of sched.active_after: the edges that retire at a step hold
    its parents' lowest digits, so a step drops them with one shift, and
    the new edge's digit is inserted at its rank j as
    ((k >> j) << (j + 1)) | (k & low j) | (x << j), in digits.  Both maps
    keep the order of keys, so each color of the sorted parents gives a
    batch of children with non-decreasing keys, which _sort_reduce sums
    with no sort, and the step ends with one _merge of its batches, as a
    split ends with one _merge of its parts: one list of (keys, vals,
    cnts, mult) runs, mult being 1 for a part.

    A step reads its checks from one list, sched.checks[p]: the loose
    faces, then the completing tetrahedra.  Every face and edge weight
    rides on the table of the first tetrahedron to complete that holds it
    (see _Schedule), so a loose face only masks rows, and values are
    multiplied only at a step where a tetrahedron completes: at any other
    step a child keeps its parent's value.  One builder makes each
    tetrahedron's table once per sweep: tet_tab times the weights it
    carries, each at its plain weight.  Per color, one gather of a
    check's row map (face_row or tet_row) gives both its admissibility
    mask (rows >= 0, combined over the checks in place) and the rows a
    tetrahedron's values are read from.  Table indices are int32: each
    digit is extracted once per step, and a check's index is built in
    one array from the digits (_grand_sum keeps nc^6 within int32).

    A step never builds more than row_limit rows, _STEP_BYTES over the
    bytes of one row.  A parent has at most nc children, so two or more
    parents whose children could pass the limit are split first by the
    key digit of one frontier edge, and each part is carried on from the
    same step, depth-first, through the step where that edge retires (or
    the part's own last step, if sooner).  There the parts' children can
    first share keys, so their rows are concatenated and merged by
    _merge, and the sweep goes on from the next step with the merged
    frontier, split again if it is still over the limit.  The sum is
    linear in the parent rows, so the merged rows hold the same sums and
    counts as an unsplit sweep.
    The split digit is the top one that varies: its edge retires last,
    ties going to the earliest assigned, so the parts stay small for as
    long as possible, and the parts are contiguous slices of the sorted
    parents.  Keys are unique, so two or more parents have such a digit,
    and a part still over the limit is split again on a lower one.  A
    merged frontier is not bounded by row_limit: it is the whole frontier
    after the retirement step.  On all-color float s2xs1 at 16 MiB steps
    r=6 never splits, and each of the 3 merge-backs at r=7 takes in 3
    rows at the last step.
    peak_out, when given, receives the live states after every step of
    every part, in the order they run, and no merged frontier.  Raises
    ArithmeticError at the first merge whose counts pass int64 (_merge
    holds the one exact count check)."""
    import numpy as np

    edge_tab, face_tab, face_row, tet_tab, tet_row, modulus = tables
    dtype = edge_tab.dtype
    nc, ns = edge_tab.shape
    # A row is an int64 key, an int64 count and one value per column.
    row_limit = _STEP_BYTES // (16 + dtype.itemsize * ns)
    # gauge_mult[x] is the number of colors a forest edge's color x stands
    # for: 2 where 2x < nc - 1 = r - 2 (x and its flip r - 2 - x), 1 where
    # 2x = r - 2, and 0 past it (flips of colors already counted).  _merge
    # scales the values and counts of the edge's color batch by it.
    gauge_mult = [(2 * x < nc - 1) + (2 * x <= nc - 1) for x in range(nc)]
    colors = [(x, 1) for x in range(nc)]
    gauged = [(x, m) for x, m in enumerate(gauge_mult) if m]
    bits = _key_bits(sched, nc)
    digit_mask = (1 << bits) - 1
    tet_digits = np.unravel_index(np.flatnonzero(tet_row >= 0), (nc,) * 6)
    built: dict[tuple, object] = {}

    def reduce(a) -> None:
        if modulus is not None:
            np.remainder(a, modulus, out=a)

    def table(kind):
        """The value table of a tetrahedron: tet_tab times the weights it
        carries, row by row.  kind is (tris, slots) as in sched.checks:
        the slot triples of its faces and the slots of the edges it
        carries.  A forest edge's weight is its plain weight here: _merge
        scales its color's values.  Cached per kind; only the arrays made
        here are reduced."""
        if kind not in built:
            tris, slots = kind
            out = tet_tab
            for a, b, c in tris:
                face = (tet_digits[a] * nc + tet_digits[b]) * nc + tet_digits[c]
                out = out * face_tab[face_row[face]]
                reduce(out)
            for q in slots:
                out = out * edge_tab[tet_digits[q]]
                reduce(out)
            built[kind] = out
        return built[kind]

    def sweep(p0: int, frontier: list, stop: int):
        """The rows [keys, vals, cnts] of frontier, which hold the states
        after step p0 - 1 sorted by key, carried through step stop:
        (keys, vals, cnts) after it.  frontier is emptied, so each array
        is freed once it is used."""
        keys, vals, cnts = frontier
        frontier.clear()
        p = p0
        while p <= stop and len(keys):
            e = sched.order[p]
            before = sched.active_after[p - 1] if p else ()
            after = sched.active_after[p]
            if len(keys) > 1 and len(keys) * nc > row_limit:
                # The keys are sorted, so the top digit that varies is the
                # top one in which the first and last keys differ, and its
                # values cut the rows into slices.  Each slice is copied, so
                # that each part is freed once it has run (views would hold
                # all the parents until the last part ends).
                top = (int(keys[0] ^ keys[-1]).bit_length() - 1) // bits
                digit = (keys >> bits * top) & digit_mask
                cuts = np.searchsorted(digit, np.arange(nc + 1)).tolist()
                parts = [
                    [keys[lo:hi].copy(), vals[lo:hi].copy(), cnts[lo:hi].copy()]
                    for lo, hi in zip(cuts, cuts[1:])
                    if lo < hi
                ]
                del keys, vals, cnts, digit
                # The parts' children first share keys at the step where
                # the split edge retires: merge them there.
                q = min(sched.last_use[before[top]], stop)
                runs = []
                while parts:
                    runs.append((*sweep(p, parts.pop(), q), 1))
                keys, vals, cnts = _merge(np, runs, modulus, q)
                p = q + 1
                continue
            rank = {x: i for i, x in enumerate(before)}
            # The retiring edges hold the lowest digits.
            kept = keys >> bits * (len(before) - len(after) + (e in after))
            new_shift = None
            if e in after:
                new_shift = bits * after.index(e)
                low = kept & ((1 << new_shift) - 1)
                kept >>= new_shift
                kept <<= new_shift + bits
                kept |= low
                del low
            runs = []
            digits: dict[int, object] = {}

            def check(ids, kind):
                """(row_map, base, stride, tab) of the check on the edges
                ids: color x of e reads row_map (face_row for a loose face,
                else tet_row) at base + x * stride, the stride being the
                place values of every slot e fills, and a tetrahedron's
                values from its table tab (None for a loose face, which
                only masks rows)."""
                base = np.zeros(len(keys), dtype=np.int32)
                stride = 0
                for eid in ids:
                    base *= nc
                    stride *= nc
                    if eid == e:
                        stride += 1
                        continue
                    if eid not in digits:
                        digits[eid] = ((keys >> bits * rank[eid]) & digit_mask).astype(np.int32)
                    base += digits[eid]
                if kind is None:
                    return face_row, base, stride, None
                return tet_row, base, stride, table(kind)

            checks = [check(ids, kind) for ids, kind in sched.checks[p]]
            del digits
            for x, mult in gauged if e in forest else colors:
                rows = [row_map.take(base + x * w) for row_map, base, w, _ in checks]
                masks = (idx >= 0 for idx in rows)
                mask = next(masks, None)
                for adm in masks:
                    mask &= adm
                sel = None if mask is None else np.flatnonzero(mask)
                del mask

                def pick(a):
                    return a if sel is None else a.take(sel, axis=0)

                # Factor order tetrahedra, parent value, which fixes the
                # float rounding; one gathered factor at a time, each
                # residue product reduced before the next.  At a step with
                # no tetrahedron the children keep their parents' values.
                factors = chain(
                    (
                        tab.take(pick(idx), axis=0)
                        for (*_, tab), idx in zip(checks, rows)
                        if tab is not None
                    ),
                    (pick(vals),),
                )
                new_vals = next(factors)
                for fac in factors:
                    new_vals *= fac
                    reduce(new_vals)
                    del fac
                del factors, rows
                child = pick(kept)
                if new_shift is not None:
                    child = child | np.int64(x << new_shift)
                # A batch whose children all fail a check is an empty run.
                runs.append((*_sort_reduce(np, child, new_vals, pick(cnts), modulus), mult))
                del child, new_vals
            del keys, vals, cnts, kept, checks
            keys, vals, cnts = _merge(np, runs, modulus, p)
            if peak_out is not None:
                peak_out.append(len(keys))
            p += 1
        return keys, vals, cnts

    keys, vals, cnts = sweep(
        0,
        [
            np.zeros(1, dtype=np.int64),
            np.ones((1, ns), dtype=dtype),
            np.ones(1, dtype=np.int64),
        ],
        len(sched.order) - 1,
    )
    # Every edge has retired after the last step, so at most one row is left.
    return dict(zip(s_values, vals.sum(axis=0).tolist(), strict=True)), int(cnts.sum())


def _spanning_forest(t: Triangulation, sched: _Schedule) -> frozenset[int]:
    """The ids of a spanning forest of the 1-skeleton of t: Kruskal over
    the edges by descending live span (last use - assignment position),
    ties going to the earliest assigned, so the forest favours the edges
    that stay live longest.  On all-color float s2xs1 in edge_order its
    sweeps held 0.91M live states in all (the sum of peak_out) at r=6 and
    1.33M at r=7, against 1.16M and 2.02M by descending last use and
    6.15M and 21.3M in assignment order.  Kruskal never takes a loop, so
    a 1-skeleton with loops is gauged on its other edges."""
    pos = {e: p for p, e in enumerate(sched.order)}
    root: dict[int, int] = {}

    def find(v: int) -> int:
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    forest = set()
    for e in sorted(pos, key=lambda e: (pos[e] - sched.last_use[e], pos[e])):
        a, b = (find(v) for v in t.edges[e])
        if a != b:
            root[a] = b
            forest.add(e)
    return frozenset(forest)


_GRAND_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _schedule(t: Triangulation) -> tuple[_Schedule, frozenset[int], dict]:
    """The one cache entry of t: _Schedule(t), its spanning forest and
    the grand sums of t by (r, even_only, exact), made on first use."""
    if t not in _GRAND_CACHE:
        sched = _Schedule(t)
        _GRAND_CACHE[t] = (sched, _spanning_forest(t, sched), {})
    return _GRAND_CACHE[t]


def _grand_sum(t: Triangulation, r: int, even_only: bool, exact: bool):
    """Grand sum and coloring count, cached per triangulation under
    (r, even_only, exact) next to its schedule and spanning forest
    (_schedule).  Each sweep sizes its own row limit from its tables
    (_run_frontier_vector).  The weight rows are built once and serve
    every sweep; all-color sums are gauge-fixed on the forest, refined
    ones run with none.

    Float: one sweep carries every evaluation class as a float64 column
    (_float_column checks every weight class for reality, and each table
    entry copies a checked value), so the grand sum is a dict from each
    point s of cyclo.evaluation_points (the refined ones when even_only)
    to its real value.

    Exact: each sweep sums int64 residues modulo one prime p = 1 (mod 2r),
    with one column per root omega^s, s in 1..r-1 prime to r.  Every
    weight is fixed by zeta -> 1/zeta, so the grand sum has the same
    residue at omega^(2r - s), and the columns give its residues at all
    deg M_r roots.  Sweeps with further primes follow until the value
    reconstructed from the earlier primes agrees with the newest one
    (_ResidueImage), and that value is the canonical CycloNum.  The grand
    sum, gauge-fixed or not, is a sum of count products of one weight per
    edge, face and tetrahedron, which bounds its height (_height_bits),
    so a fault that makes the residues disagree raises ArithmeticError
    after finitely many primes.

    Table indices are int32, so more than 2^31 - 1 digit tuples of a
    tetrahedron (nc^6 for nc colors) raise ValueError before any table
    is built, as an unpackable frontier does.  Coloring counts are int64:
    a sweep raises ArithmeticError at the first merge whose counts sum
    past it, whatever the row limit (_merge holds the one exact check)."""
    sched, forest, per_tri = _schedule(t)
    key = (r, even_only, exact)
    if key in per_tri:
        return per_tri[key]
    import numpy as np

    allowed = color_range(r, even_only)
    nc = len(allowed)
    # A flip maps even colors to odd ones at odd r: refined sums keep every
    # color of every edge.
    if even_only:
        forest = frozenset()
    # An unpackable frontier or an unindexable table fails here, before
    # any table is built.
    _key_bits(sched, nc)
    if nc**6 > 2**31 - 1:
        raise ValueError(
            f"tetrahedron table too large to index: {nc}^6 digit tuples pass int32"
        )
    reps = evaluation_points(r, even_only and not exact)
    rows = _weight_rows(np, r, allowed)
    if not exact:
        tables = _vector_tables(np, rows, _float_column(reps))
        per_tri[key] = _run_frontier_vector(sched, reps, tables, forest=forest)
        return per_tri[key]
    # The class weights hold every distinct weight of the tuples, so they
    # give _height_bits the same lcm and maximum.
    edges, (*_, face_weights), (*_, tet_weights) = rows
    image = None
    for p, omega in _residue_primes(r):
        tables = _vector_tables(np, rows, _residue_column(r, reps, p, omega))
        grands, count = _run_frontier_vector(sched, reps, tables, forest=forest)
        if image is None:
            groups = [
                (edges, len(t.edges)),
                (face_weights, len(t.face_edges)),
                (tet_weights, len(t.tet_edges)),
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
    if _unreal(raw):
        raise ArithmeticError(f"state sum lost reality: {raw!r}")
    return StateSumResult(
        value=raw.real, raw=raw, r=r, s=s, refined=refined, coloring_count=count
    )


def _state_sum(
    t: Triangulation, r: int, s: int, refined: bool, method: str
) -> StateSumResult:
    check_point(r, s, refined)
    if method not in ("exact", "float"):
        raise ValueError(f"unknown method {method!r}; use 'exact' or 'float'")
    grand, count = _grand_sum(t, r, refined, method == "exact")
    if method == "exact":
        total = _prefactor(r, refined) ** t.vertex_count * grand
        raw = total.evaluate(s)
    else:
        # Measured against exact: at most 2.3e-14 relative on s2xs1 at r=5
        # and 1.9e-14 on the sphere at r=3..8, but 3.6e-13 at r=10, 2.7e-10
        # at r=11 and 3.4e-8 at r=13 (see tv); integrality checks need "exact".
        pre = _prefactor(r, refined).evaluate(s) ** t.vertex_count
        s_norm = s % (2 * r)
        raw = pre * grand[min(s_norm, 2 * r - s_norm)]
    return _finish(raw, r, s, refined, count)


def tv(t: Triangulation, r: int, s: int, *, method: str = "exact") -> StateSumResult:
    """TV_{r,s}: prefactor ((zeta - zeta^-1)^2 / (-2r))^|V| times the grand
    sum over all admissible colorings, evaluated at zeta = e^(i pi s/r).

    method="float" loses accuracy as r grows: on the sphere its worst
    relative error over s is 1.9e-14 at r <= 8, 1.2e-13 at r=9, 3.6e-13
    at r=10, 2.7e-10 at r=11, 1.1e-11 at r=12 and 3.4e-8 at r=13.  For
    integrality or r > 10, use method="exact"."""
    return _state_sum(t, r, s, refined=False, method=method)


def tv_prime(t: Triangulation, r: int, s: int, *, method: str = "exact") -> StateSumResult:
    """TV'_{r,s}: denominator -r and colorings restricted to even colors;
    defined for odd r and even s coprime to r."""
    return _state_sum(t, r, s, refined=True, method=method)
