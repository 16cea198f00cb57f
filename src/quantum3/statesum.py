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
# the opposite pairs (i, l), (j, m), (k, n) taken two at a time (written
# out in _tet_weight, which runs once per coloring in coloring_weight).
_TET_FACES = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
_TET_SQUARES = ((0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5))


def _tet_weight(i: int, j: int, k: int, l: int, m: int, n: int, r: int) -> CycloNum:
    """The weight of the tetrahedron with slot colors (i, j, k, l, m, n):
    each face is checked for admissibility, and the z-sum is _racah of the
    sorted face and square half-sums, which the tetrahedral and Regge
    symmetries keep, so all tuples of one class share one evaluation."""
    faces = ((i, j, k), (i, m, n), (j, l, n), (k, l, m))
    for tri in faces:
        if not admissible_triple(*tri, r):
            raise ValueError(f"tetra face colors {tri} not admissible at r={r}")
    halves = sorted((a + b + c) // 2 for (a, b, c) in faces)
    squares = sorted([(i + j + l + m) // 2, (i + k + l + n) // 2, (j + k + m + n) // 2])
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

    Each tetrahedron that completes at a step absorbs the faces that
    complete with it (they all pass through the new edge), each face
    once: absorbed[p] gives, per tetrahedron of tet_checks[p], the slot
    triples of the faces it absorbs, and loose_faces[p] the completing
    faces that no tetrahedron absorbed.  A face is matched to a slot
    triple by its edge ids, and face weights are symmetric, so an edge
    that fills two slots needs no special case."""

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

        self.absorbed: list[list[tuple]] = []
        self.loose_faces: list[list[tuple]] = []
        for faces, tets in zip(self.face_checks, self.tet_checks):
            loose = list(faces)
            absorbed = []
            for slots in tets:
                mine = []
                for tri in _TET_FACES:
                    edges = sorted(slots[q] for q in tri)
                    face = next((f for f in loose if sorted(f) == edges), None)
                    if face is not None:
                        loose.remove(face)
                        mine.append(tri)
                absorbed.append(tuple(mine))
            self.absorbed.append(absorbed)
            self.loose_faces.append(loose)


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

    Pass freshly made arrays, held by no other name: each input is then
    freed as soon as its sorted or reduced form exists."""
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


def _drain(np, chunks: list):
    """The chunks concatenated; the list is emptied so they can be freed."""
    out = np.concatenate(chunks)
    chunks.clear()
    return out


def _merge(
    np, key_runs: list, val_runs: list, cnt_runs: list, modulus, step: int, mults=None
):
    """The rows of the runs merged into one frontier by _sort_reduce; the
    lists are emptied.  The runs are a step's reduced color batches, or
    the parts of a split (see _run_frontier_vector); there is at least
    one, and empty runs are fine.  mults, when given, holds one count
    multiplier per run (1, or 2 for a doubled color of a forest edge),
    applied here.

    This is the engine's one count check.  A child's count is its
    parent's count times its color's multiplier, and a color batch sums
    its rows with equal keys before the multiplier is applied, so within
    a batch counts stay bounded by the parents' total that the last merge
    checked.  Here the runs' totals times their multipliers are summed as
    Python ints first, and a total that passes int64 raises
    ArithmeticError naming the step before any run is multiplied; after
    that no multiplied run and no sum of rows can pass int64."""
    mults = mults or [1] * len(cnt_runs)
    total = sum(m * int(run.sum()) for m, run in zip(mults, cnt_runs))
    if total >= 2**63:
        raise ArithmeticError(
            f"coloring count passes int64 at step {step} ({total} partial colorings)"
        )
    # A run may be its parents' own count array: multiply into a copy.
    cnt_runs[:] = [run if m == 1 else run * m for m, run in zip(mults, cnt_runs)]
    return _sort_reduce(
        np,
        _drain(np, key_runs),
        _drain(np, val_runs),
        _drain(np, cnt_runs),
        modulus,
    )


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
    # Tetrahedron (i, j, k, l, m, n) has faces (i, j, k), (i, m, n),
    # (j, l, n) and (k, l, m); each term below places one on its axes.
    tet_adm = (
        face_adm[:, :, :, None, None, None]
        & face_adm[:, None, None, None, :, :]
        & face_adm[None, :, None, :, None, :]
        & face_adm[None, None, :, :, :, None]
    )

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
    edge row is doubled and the batch's counts are doubled at the merge
    (_merge).  An empty forest sums every coloring.

    The key holds the color index of every frontier edge as one digit, in
    the order of sched.active_after: the edges that retire at a step hold
    its parents' lowest digits, so a step drops them with one shift, and
    the new edge's digit is inserted at its rank j as
    ((k >> j) << (j + 1)) | (k & low j) | (x << j), in digits.  Both maps
    keep the order of keys, so each color of the sorted parents gives a
    batch of children with non-decreasing keys, which _sort_reduce sums
    with no sort, and the step ends with one _merge of its batches, as a
    split ends with one _merge of its parts.

    Each step makes one list of checks: the loose faces, then the
    completing tetrahedra.  A check reads a row map (face_row or tet_row)
    and a value table: face_tab for a loose face, and for a tetrahedron
    tet_tab times the weights of the faces it absorbs
    (_Schedule.absorbed), one table per pattern of absorbed face slots,
    built once per sweep.  The first check's table also carries the edge
    weight of the new edge's color (one scaled copy per table, color and
    multiplier, built once per sweep), so a child row is multiplied by
    the edge weight only at a step with no check.  Per color, one gather
    of a check's row map gives both its admissibility mask (rows >= 0,
    combined over the checks in place) and the rows its values are read
    from.  Table indices are int32: each digit is extracted once per
    step, and a check's index is built in one array from the digits
    (_grand_sum keeps nc^6 within int32).

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
    # A forest edge takes only the colors x with 2x <= nc - 1 = r - 2; an x
    # with 2x < r - 2 stands for its flip r - 2 - x too, so its edge row
    # and its batch's counts double.
    doubled = edge_tab * 2
    if modulus is not None:
        doubled %= modulus
    colors = [(x, edge_tab[x], 1) for x in range(nc)]
    gauged = [
        (x, edge_tab[x], 1) if 2 * x == nc - 1 else (x, doubled[x], 2)
        for x in range((nc + 1) // 2)
    ]
    bits = _key_bits(sched, nc)
    digit_mask = (1 << bits) - 1
    tet_digits = np.unravel_index(np.flatnonzero(tet_row >= 0), (nc,) * 6)
    fused_tabs: dict[tuple, object] = {}
    scaled_tabs: dict[tuple, object] = {}

    def reduce(a) -> None:
        if modulus is not None:
            np.remainder(a, modulus, out=a)

    def table(kind):
        """The value table of a check: face_tab for a loose face (kind
        None), else tet_tab times the weights of the faces on the absorbed
        slot triples kind, row by row (cached per pattern)."""
        if kind is None:
            return face_tab
        if kind not in fused_tabs:
            out = tet_tab
            for a, b, c in kind:
                face = (tet_digits[a] * nc + tet_digits[b]) * nc + tet_digits[c]
                out = out * face_tab[face_row[face]]
                reduce(out)
            fused_tabs[kind] = out
        return fused_tabs[kind]

    def scaled(kind, x, edge_row, mult):
        """table(kind) times the edge row of color x (doubled when mult is
        2), cached per kind, color and multiplier: a step's first check
        carries the edge weight, so no child row is multiplied by it."""
        if (kind, x, mult) not in scaled_tabs:
            out = table(kind) * edge_row
            reduce(out)
            scaled_tabs[kind, x, mult] = out
        return scaled_tabs[kind, x, mult]

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
                key_runs, val_runs, cnt_runs = [], [], []
                while parts:
                    part_keys, part_vals, part_cnts = sweep(p, parts.pop(), q)
                    key_runs.append(part_keys)
                    val_runs.append(part_vals)
                    cnt_runs.append(part_cnts)
                    del part_keys, part_vals, part_cnts
                keys, vals, cnts = _merge(np, key_runs, val_runs, cnt_runs, modulus, q)
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
            key_runs, val_runs, cnt_runs, mults = [], [], [], []
            digits: dict[int, object] = {}

            def check(ids, kind):
                """(kind, row_map, base, stride) of the check on the edges
                ids, its values in table(kind): color x of e reads row_map
                (face_row for a loose face, else tet_row) at base + x *
                stride, the stride being the place values of every slot e
                fills."""
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
                return kind, face_row if kind is None else tet_row, base, stride

            checks = [check(f, None) for f in sched.loose_faces[p]]
            checks += [check(slots, a) for slots, a in zip(sched.tet_checks[p], sched.absorbed[p])]
            del digits
            for x, edge_row, mult in gauged if e in forest else colors:
                rows = [row_map.take(base + x * w) for _, row_map, base, w in checks]
                masks = (idx >= 0 for idx in rows)
                mask = next(masks, None)
                for adm in masks:
                    mask &= adm
                sel = None if mask is None else np.flatnonzero(mask)
                del mask

                def pick(a):
                    return a if sel is None else a.take(sel, axis=0)

                # Factor order edge, loose faces, tets, parent value, which
                # fixes the float rounding; one gathered factor at a time,
                # each residue product reduced before the next.  The edge
                # row rides on the first check's table, so only a step with
                # no check multiplies rows by it.
                tabs = [table(kind) for kind, *_ in checks]
                if checks:
                    tabs[0] = scaled(checks[0][0], x, edge_row, mult)
                factors = chain(
                    (tab.take(pick(idx), axis=0) for tab, idx in zip(tabs, rows)),
                    (pick(vals),),
                )
                new_vals = next(factors)
                if not checks:
                    new_vals = new_vals * edge_row
                    reduce(new_vals)
                for fac in factors:
                    new_vals *= fac
                    reduce(new_vals)
                    del fac
                del factors, rows, tabs
                child = pick(kept)
                if new_shift is not None:
                    child = child | np.int64(x << new_shift)
                # A batch whose children all fail a check is an empty run.
                child, new_vals, child_cnts = _sort_reduce(
                    np, child, new_vals, pick(cnts), modulus
                )
                key_runs.append(child)
                val_runs.append(new_vals)
                cnt_runs.append(child_cnts)
                mults.append(mult)
                del child, new_vals, child_cnts
            del keys, vals, cnts, kept, checks
            keys, vals, cnts = _merge(np, key_runs, val_runs, cnt_runs, modulus, p, mults)
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
    6.15M and 21.3M in assignment order.

    The vertex flips that let a forest edge skip half its colors (see
    the module docstring) assume that every edge joins two distinct
    vertices, which the Triangulation constructor guarantees; a complex
    glued from face pairings, whose edges may be loops, needs this rule
    revisited."""
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
