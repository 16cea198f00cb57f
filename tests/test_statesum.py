"""State-sum weights and invariants against closed forms and independent oracles."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from weakref import WeakKeyDictionary

import pytest

from quantum3 import statesum
from quantum3.complex3 import (
    Coloring,
    Triangulation,
    TriangulationError,
    admissible_triple,
    color_range,
    disjoint_union,
    edge_order,
    enumerate_admissible,
    faces_completed_at,
    is_admissible,
    load_asset,
    normal_surface_euler_parity,
    split_coloring,
)
from quantum3.cyclo import CycloNum, _residue_primes, evaluation_points, quantum_factorial
from quantum3.statesum import (
    StateSumResult,
    _edge_weight,
    _face_weight,
    _grand_sum,
    _key_bits,
    _merge,
    _prefactor,
    _run_frontier_vector,
    _Schedule,
    _sort_reduce,
    _tet_weight,
    coloring_weight,
    tv,
    tv_prime,
)

from helpers import boundary_4_simplex


def dict_frontier_sum(sched: _Schedule, r: int, even_only: bool) -> tuple[CycloNum, int]:
    """Exact oracle for the grand sum: the frontier dynamic program over a
    dict of tuple keys, multiplying CycloNum weights once per state and
    color.  Returns (grand sum, coloring count)."""
    allowed = color_range(r, even_only)
    states: dict[tuple[int, ...], list] = {(): [1, CycloNum.one(r)]}
    for p, e in enumerate(sched.order):
        face_checks = sched.face_checks[p]
        tet_checks = sched.tet_checks[p]
        # Index maps for state projection and rebuilding; -1 stands for e.
        before = sched.active_after[p - 1] if p else ()
        before_index = {eid: q for q, eid in enumerate(before)}
        touched = sorted(
            {x for f in face_checks for x in f} | {x for slots in tet_checks for x in slots}
        )
        relevant = tuple(-1 if x == e else before_index[x] for x in touched)
        rebuild = tuple(-1 if x == e else before_index[x] for x in sched.active_after[p])

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
            # e is never needed again: sum its colors out at once.  The
            # count multiplier is the number of admissible colors, kept
            # even when the weight sum cancels to zero.
            for key, (cnt, val) in states.items():
                mk = tuple(key[q] for q in relevant if q != -1)
                if mk not in memo:
                    n_adm = 0
                    tot = None
                    for x in allowed:
                        raw = raw_multiplier(x, key)
                        if raw is None:
                            continue
                        n_adm += 1
                        tot = raw if tot is None else tot + raw
                    memo[mk] = None if n_adm == 0 else (n_adm, tot)
                agg = memo[mk]
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
                for x in allowed:
                    mk = (x,) + tuple(x if q == -1 else key[q] for q in relevant)
                    if mk not in memo:
                        memo[mk] = raw_multiplier(x, key)
                    mult = memo[mk]
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
            return CycloNum.zero(r), 0
    ((total_cnt, total_val),) = states.values()
    return total_val, total_cnt


def qint(n: int, r: int, s: int = 1) -> float:
    """Float oracle for the quantum integer [n] at q^(1/2) = e^(i*pi*s/r)."""
    return math.sin(math.pi * n * s / r) / math.sin(math.pi * s / r)


def qfact(n: int, r: int, s: int = 1) -> float:
    out = 1.0
    for m in range(1, n + 1):
        out *= qint(m, r, s)
    return out


def racah_sum(i: int, j: int, k: int, l: int, m: int, n: int, r: int, s: int = 1) -> float:
    """Independent float oracle for the tetrahedron weight: alternating sum
    over z of [z+1]! / (prod [z-T_a]! * prod [Q_b-z]!) with T_a the face
    half-sums and Q_b the opposite-pair half-sums."""
    halves = [
        (i + j + k) // 2,
        (i + m + n) // 2,
        (j + l + n) // 2,
        (k + l + m) // 2,
    ]
    quads = [
        (i + j + l + m) // 2,
        (i + k + l + n) // 2,
        (j + k + m + n) // 2,
    ]
    out = 0.0
    for z in range(max(halves), min(min(quads), r - 2) + 1):
        term = (-1) ** z * qfact(z + 1, r, s)
        for t_a in halves:
            term /= qfact(z - t_a, r, s)
        for q_b in quads:
            term /= qfact(q_b - z, r, s)
        out += term
    return out


def test_edge_weight_closed_forms():
    assert _edge_weight(0, 5) == CycloNum.one(5)
    got = _edge_weight(1, 5).evaluate(1)
    assert abs(got - (-2 * math.cos(math.pi / 5))) < 1e-12
    # (-1)^3 [4] and [4] = [1] at r = 5, so the weight is -1.
    assert abs(_edge_weight(3, 5).evaluate(1) - (-1)) < 1e-12


def test_face_weight_examples():
    assert abs(_face_weight(1, 1, 0, 3).evaluate(1) - (-1)) < 1e-12
    expected = -1.0 / (qint(2, 5) * qint(3, 5) * qint(4, 5))
    assert abs(_face_weight(2, 2, 2, 5).evaluate(1) - expected) < 1e-12


def test_face_weight_rejects_inadmissible():
    with pytest.raises(ValueError):
        _face_weight(1, 1, 1, 5)


def test_tet_weight_all_zero_is_one():
    assert _tet_weight(0, 0, 0, 0, 0, 0, 7) == CycloNum.one(7)


def test_tet_weight_single_term_collapse():
    # (1,1,2,1,1,2): all four faces are (1,1,2); z ranges over {2} only
    # at r = 4, so the weight is the single term [3]! = [2].
    got = _tet_weight(1, 1, 2, 1, 1, 2, 4).evaluate(1)
    assert abs(got - qint(2, 4)) < 1e-12
    assert abs(got - racah_sum(1, 1, 2, 1, 1, 2, 4)) < 1e-12


def test_tet_weight_rejects_inadmissible_faces():
    # Faces (1,1,1) fail the parity condition, so the formula's factorial
    # arguments would not even be integers.
    with pytest.raises(ValueError):
        _tet_weight(1, 1, 1, 1, 1, 1, 4)


def test_tet_weight_matches_racah_oracle():
    rng = random.Random(20260815)
    r = 7
    found = 0
    while found < 25:
        tup = tuple(rng.randrange(r - 1) for _ in range(6))
        i, j, k, l, m, n = tup
        try:
            w = _tet_weight(i, j, k, l, m, n, r)
        except ValueError:
            continue
        found += 1
        for s in (1, 2, 3):
            assert abs(w.evaluate(s) - racah_sum(*tup, r, s)) < 1e-9


def test_tet_weight_multi_term_sum():
    # (2,2,2,2,2,2) at r = 7 sums over z in {3, 4}: a genuine alternating
    # two-term case.
    got = _tet_weight(2, 2, 2, 2, 2, 2, 7).evaluate(1)
    assert abs(got - racah_sum(2, 2, 2, 2, 2, 2, 7)) < 1e-12


def test_tet_weight_symmetry_group():
    # The weight is invariant under permuting the three opposite pairs and
    # under swapping the two edges of an even number of pairs.
    rng = random.Random(11)
    r = 7
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    flipsets = [(), (0, 1), (0, 2), (1, 2)]
    found = 0
    while found < 15:
        tup = tuple(rng.randrange(r - 1) for _ in range(6))
        try:
            base = _tet_weight(*tup, r)
        except ValueError:
            continue
        found += 1
        upper, lower = tup[:3], tup[3:]
        for perm in perms:
            for flips in flipsets:
                new_upper = tuple(
                    lower[perm[p]] if p in flips else upper[perm[p]] for p in range(3)
                )
                new_lower = tuple(
                    upper[perm[p]] if p in flips else lower[perm[p]] for p in range(3)
                )
                assert _tet_weight(*(new_upper + new_lower), r) == base


def test_memoized_tet_weight_matches_unmemoized():
    raw = statesum._racah.__wrapped__
    rng = random.Random(3)
    for _ in range(50):
        i, j, k, l, m, n = tup = tuple(rng.randrange(4) for _ in range(6))
        faces = ((i, j, k), (i, m, n), (j, l, n), (k, l, m))
        if not all(admissible_triple(*tri, 5) for tri in faces):
            with pytest.raises(ValueError):
                _tet_weight(*tup, 5)
            continue
        halves = sorted(sum(tri) // 2 for tri in faces)
        squares = sorted([(i + j + l + m) // 2, (i + k + l + n) // 2, (j + k + m + n) // 2])
        assert _tet_weight(*tup, 5) == raw(tuple(halves), tuple(squares), 5)


def _exact_racah(tup, r, inv):
    """Exact oracle for the tetrahedron weight from the tuple's own face
    and square half-sums, in slot order; inv caches [n]!^-1 per (n, r),
    each by its own CycloNum.inverse."""
    i, j, k, l, m, n = tup
    halves = [(i + j + k) // 2, (i + m + n) // 2, (j + l + n) // 2, (k + l + m) // 2]
    squares = [(i + j + l + m) // 2, (i + k + l + n) // 2, (j + k + m + n) // 2]

    def inverse(n):
        if (n, r) not in inv:
            inv[n, r] = quantum_factorial(n, r).inverse()
        return inv[n, r]

    out = CycloNum.zero(r)
    for z in range(max(halves), min(min(squares), r - 2) + 1):
        term = quantum_factorial(z + 1, r)
        for x in [z - t for t in halves] + [q - z for q in squares]:
            term = term * inverse(x)
        out = out + (-term if z % 2 else term)
    return out


def _weight_cases():
    """(r, colors) for r = 3..8, all colors and, at odd r, refined."""
    return [(r, color_range(r, even)) for r in range(3, 9) for even in (False, True)[: 1 + r % 2]]


def _row_tuples(np, colors, flat, slots):
    """The color tuples at the flat digit positions of a weight row."""
    digits = np.unravel_index(flat, (len(colors),) * slots)
    return [tuple(colors[d] for d in tup) for tup in zip(*(a.tolist() for a in digits))]


def test_weight_row_classes_match_racah_sums():
    # Every admissible tuple's class weight is its own Racah sum, and a
    # Regge image's Racah sum is the class weight of its base tuple.
    import numpy as np

    inv: dict = {}
    for r, colors in _weight_cases():
        _, _, (flat, index, weights) = statesum._weight_rows(np, r, colors)
        tuples = _row_tuples(np, colors, flat, 6)
        for tup, c in zip(tuples, index.tolist()):
            assert weights[c] == _exact_racah(tup, r, inv), (r, tup)
        if len(colors) < r - 1:
            continue
        # One Regge image per r (the map through the square half-sum of
        # slots j, k, m, n), from r = 5 on one with other colors.
        admissible = set(tuples)
        images = []
        for tup, c in zip(tuples, index.tolist()):
            i, j, k, l, m, n = tup
            sigma = (j + k + m + n) // 2
            image = (i, sigma - j, sigma - k, l, sigma - m, sigma - n)
            if image != tup and image in admissible:
                images.append((sorted(image) == sorted(tup), image, c))
        permuted, image, c = min(images)
        assert r < 5 or not permuted
        assert _exact_racah(image, r, inv) == weights[c], (r, image)


def test_class_tables_equal_per_tuple_tables():
    # The parent's layout: each admissible tuple's own weight through the
    # column function.  Float tables must match bit for bit.
    import numpy as np

    for r, colors in _weight_cases():
        rows = statesum._weight_rows(np, r, colors)
        _, (face_flat, *_), (tet_flat, *_) = rows
        face_weights = [_face_weight(*tri, r) for tri in _row_tuples(np, colors, face_flat, 3)]
        tet_weights = [_tet_weight(*tup, r) for tup in _row_tuples(np, colors, tet_flat, 6)]
        reps = evaluation_points(r, len(colors) < r - 1)
        p, omega = next(_residue_primes(r))
        for domain in (
            statesum._float_column(reps),
            statesum._residue_column(r, evaluation_points(r), p, omega),
        ):
            column, _ = domain
            _, face_tab, _, tet_tab, _, _ = statesum._vector_tables(np, rows, domain)
            for got, want in ((face_tab, column(face_weights)), (tet_tab, column(tet_weights))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), r


def test_weights_cost_one_racah_sum_per_class(monkeypatch):
    # From cold caches, the r=7 weights take 66 Racah sums for 784
    # tetrahedra and one CycloNum.inverse, of [6]!.
    import numpy as np

    from quantum3 import cyclo

    for cached in (statesum._racah, statesum._face_weight, cyclo._inv_quantum_factorial):
        cached.cache_clear()
    calls = []
    real = CycloNum.inverse
    monkeypatch.setattr(CycloNum, "inverse", lambda x: calls.append(x) or real(x))
    _, _, (flat, _, weights) = statesum._weight_rows(np, 7, color_range(7))
    assert (len(flat), len(weights)) == (784, 66)
    assert statesum._racah.cache_info().misses == 66
    assert calls == [quantum_factorial(6, 7)]


def test_tv_matches_enumeration():
    t = boundary_4_simplex()
    for r, s in ((3, 1), (4, 1), (5, 2)):
        total = 0j
        count = 0
        for c in enumerate_admissible(t, r):
            total += coloring_weight(t, c).evaluate(s)
            count += 1
        # (q^(1/2) - q^(-1/2))^2 / (-2r) = 2 sin^2(pi s / r) / r
        pre = (2 * math.sin(math.pi * s / r) ** 2 / r) ** t.vertex_count
        got = tv(t, r, s)
        assert got.coloring_count == count
        assert abs(got.value - (pre * total).real) < 1e-10


def test_tv_prime_matches_even_enumeration():
    t = boundary_4_simplex()
    r, s = 5, 2
    total = 0j
    count = 0
    for c in enumerate_admissible(t, r, even_only=True):
        total += coloring_weight(t, c).evaluate(s)
        count += 1
    pre = (4 * math.sin(math.pi * s / r) ** 2 / r) ** t.vertex_count
    got = tv_prime(t, r, s)
    assert got.coloring_count == count
    assert abs(got.value - (pre * total).real) < 1e-12


def test_sphere_closed_form_all_s():
    t = boundary_4_simplex()
    for r in (3, 4, 5, 6, 7, 11):
        for s in range(1, r):
            if math.gcd(s, r) != 1:
                continue
            expected = (2 / r) * math.sin(math.pi * s / r) ** 2
            assert abs(tv(t, r, s).value - expected) < 1e-12


def test_sphere_refined_closed_form():
    t = boundary_4_simplex()
    for r in (5, 7):
        expected = (4 / r) * math.sin(math.pi / r) ** 2
        assert abs(tv_prime(t, r, r - 1).value - expected) < 1e-12


def test_sphere_refined_galois_pair():
    # The two refined values at r = 5 are Galois conjugates: their sum and
    # product are rational (1 and 1/5).
    t = boundary_4_simplex()
    v2 = tv_prime(t, 5, 2).value
    v4 = tv_prime(t, 5, 4).value
    assert abs(v2 - (4 / 5) * math.sin(2 * math.pi / 5) ** 2) < 1e-12
    assert abs((v2 + v4) - 1) < 1e-12
    assert abs(v2 * v4 - Fraction(1, 5)) < 1e-12


def test_s2xs1_invariant_is_one():
    t = load_asset("s2xs1")
    for r in (3, 4):
        assert abs(tv(t, r, 1).value - 1) < 1e-10
    assert abs(tv(t, 5, 1, method="float").value - 1) < 1e-9
    assert abs(tv_prime(t, 5, 4, method="float").value - 1) < 1e-9


def test_disjoint_union_multiplies():
    t = boundary_4_simplex()
    both = disjoint_union(t, t)
    for r, s in ((3, 1), (4, 1)):
        one = tv(t, r, s)
        pair = tv(both, r, s)
        assert pair.coloring_count == one.coloring_count**2
        assert abs(pair.value - one.value**2) < 1e-10


def test_s_symmetries():
    t = boundary_4_simplex()
    base = tv(t, 5, 3).value
    assert abs(tv(t, 5, -3).value - base) < 1e-12
    assert abs(tv(t, 5, 13).value - base) < 1e-12


def test_sign_change_law_on_sphere():
    t = boundary_4_simplex()
    r = 5
    for c in enumerate_admissible(t, r):
        w = coloring_weight(t, c)
        c3, _ = split_coloring(c)
        parity = normal_surface_euler_parity(t, c3)
        lhs = w.evaluate(1)
        rhs = (-1) ** parity * w.evaluate(r - 1)
        assert abs(lhs - rhs) < 1e-10


def test_termwise_factorization_even_s():
    t = boundary_4_simplex()
    r, s = 5, 2
    rng = random.Random(7)
    cs = list(enumerate_admissible(t, r))

    def value(weight, c, ids, s):
        """weight at the colors of c on the edge ids, evaluated at s."""
        return weight(*(c[e] for e in ids), c.level_r).evaluate(s)

    for c in rng.sample(cs, 40):
        c3, cp = split_coloring(c)
        for e in range(len(t.edges)):
            lhs = value(_edge_weight, c, (e,), s)
            rhs = value(_edge_weight, c3, (e,), 2) * value(_edge_weight, cp, (e,), s)
            assert abs(lhs - rhs) < 1e-10
        for f in t.face_edges:
            lhs = value(_face_weight, c, f, s)
            rhs = value(_face_weight, c3, f, 2) * value(_face_weight, cp, f, s)
            assert abs(lhs - rhs) < 1e-10
        for slots in t.tet_edges:
            lhs = value(_tet_weight, c, slots, s)
            rhs = value(_tet_weight, c3, slots, 2) * value(_tet_weight, cp, slots, s)
            assert abs(lhs - rhs) < 1e-10


def test_splitting_of_invariants_on_sphere():
    t = boundary_4_simplex()
    for r in (5, 7):
        for s in range(1, r):
            if math.gcd(s, r) != 1:
                continue
            full = tv(t, r, s).value
            if s % 2 == 0:
                expected = tv(t, 3, 2).value * tv_prime(t, r, s).value
            else:
                expected = tv(t, 3, 1).value * tv_prime(t, r, r - s).value
            assert abs(full - expected) < 1e-9


def test_float_method_matches_exact():
    # Measured against exact: at most 1.9e-14 relative on the sphere and
    # 2.3e-14 on s2xs1 at r=5.
    t = boundary_4_simplex()
    cases = [(t, r) for r in (3, 4, 5, 6, 7)] + [(load_asset("s2xs1"), 5)]
    for tri, r in cases:
        for s in range(1, r):
            if math.gcd(s, r) != 1:
                continue
            a = tv(tri, r, s, method="exact")
            b = tv(tri, r, s, method="float")
            assert abs(a.raw - b.raw) <= 1e-12 * abs(a.raw)
            assert a.coloring_count == b.coloring_count


# Worst relative error of float tv on the sphere over s, per level, as
# documented in tv: twice the measured 1.2e-13, 3.6e-13, 2.7e-10, 1.1e-11
# and 3.4e-8.  These pin today's loss of accuracy; they are not a goal.
FLOAT_SPHERE_BOUNDS = {9: 2.4e-13, 10: 7.2e-13, 11: 5.4e-10, 12: 2.2e-11, 13: 6.8e-8}


@pytest.mark.parametrize("r", sorted(FLOAT_SPHERE_BOUNDS))
def test_float_sphere_error_within_documented_bounds(r):
    t = boundary_4_simplex()
    for s in evaluation_points(r):
        expected = (2 / r) * math.sin(math.pi * s / r) ** 2
        got = tv(t, r, s, method="float").value
        assert abs(got - expected) <= FLOAT_SPHERE_BOUNDS[r] * expected, (r, s, got)


def _grand_case(name: str) -> Triangulation:
    if name == "two spheres":
        return disjoint_union(boundary_4_simplex(), boundary_4_simplex())
    return load_asset(name)


@pytest.mark.parametrize(
    "name, r, even_only",
    [("s3_boundary4simplex", r, False) for r in (3, 4, 5, 6, 7)]
    + [("s3_boundary4simplex", 5, True), ("s3_boundary4simplex", 7, True)]
    + [("s2xs1", 3, False), ("s2xs1", 4, False)]
    + [("two spheres", 3, False), ("two spheres", 4, False)],
)
def test_exact_grand_sum_matches_dict_oracle(name, r, even_only):
    t = _grand_case(name)
    grand, count = _grand_sum(t, r, even_only, True)
    want, want_count = dict_frontier_sum(_Schedule(t), r, even_only)
    assert (grand._num, grand._den, count) == (want._num, want._den, want_count)


def _row_bytes(tables) -> int:
    """Bytes of one state row over tables: an int64 key, an int64 count
    and one value per column of the edge table."""
    edge_tab = tables[0]
    return 16 + edge_tab.itemsize * edge_tab.shape[1]


def _recorded_sweeps(monkeypatch, step_bytes: int) -> list:
    """Run later sums afresh with steps of step_bytes and record each
    sweep as (row_limit, steps, peaks, built): its row limit at
    step_bytes and its tables' row size, the schedule's step count,
    the live states after every step of every part, and the rows that
    each step built, summed over its color batches before their
    _sort_reduce.  Every color batch must arrive with non-decreasing
    keys.  A step's batches go to one _merge; the _sort_reduce calls made
    inside a _merge are not batches, and a split's merge-back, which
    follows no batch, records no step."""
    sweeps = []
    batches = []
    merging = []

    def recording_reduce(np, keys, *rest):
        if not merging:
            assert (keys[1:] >= keys[:-1]).all(), "color batch out of key order"
            batches.append(len(keys))
        return _sort_reduce(np, keys, *rest)

    def recording_merge(*args, **kwargs):
        if batches:
            sweeps[-1][3].append(sum(batches))
            batches.clear()
        merging.append(True)
        try:
            return _merge(*args, **kwargs)
        finally:
            merging.pop()

    def recording_sweep(sched, s_values, tables, **kwargs):
        peaks = []
        sweeps.append((step_bytes // _row_bytes(tables), len(sched.order), peaks, []))
        return _run_frontier_vector(sched, s_values, tables, peak_out=peaks, **kwargs)

    monkeypatch.setattr(statesum, "_sort_reduce", recording_reduce)
    monkeypatch.setattr(statesum, "_merge", recording_merge)
    monkeypatch.setattr(statesum, "_run_frontier_vector", recording_sweep)
    monkeypatch.setattr(statesum, "_GRAND_CACHE", WeakKeyDictionary())
    monkeypatch.setattr(statesum, "_STEP_BYTES", step_bytes)
    return sweeps


def _assert_steps_within_limit(sweeps) -> None:
    """No step built or kept more rows than its sweep's row limit."""
    for row_limit, _, peaks, built in sweeps:
        assert max(peaks) <= row_limit and max(built) <= row_limit


def test_exact_grand_sum_survives_frontier_splits(monkeypatch):
    t = load_asset("s2xs1")
    want, want_count = dict_frontier_sum(_Schedule(t), 4, False)
    # A row limit of 625 splits every sweep, and some parts split again.
    sweeps = _recorded_sweeps(monkeypatch, 20_000)
    grand, count = _grand_sum(t, 4, False, True)
    assert (grand._num, grand._den, count) == (want._num, want._den, want_count)
    # Every prime's sweep split its frontier: a part repeats steps.
    assert sweeps and all(len(peaks) > steps for _, steps, peaks, _ in sweeps)
    _assert_steps_within_limit(sweeps)


@pytest.mark.parametrize(
    "name, r, step_bytes",
    [("s3_boundary4simplex", 7, 16 << 20), ("s2xs1", 5, 16 << 20), ("s2xs1", 5, 4006 * 48)],
)
def test_color_batches_arrive_sorted(monkeypatch, name, r, step_bytes):
    # Retirement-ordered key digits keep every color batch of a step in
    # key order, in both domains, unsplit and at a 4,006-row limit (4
    # evaluation columns at r=5 make 48-byte rows).  _recorded_sweeps
    # asserts the order of every batch.
    t = load_asset(name)
    for exact in (False, True):
        sweeps = _recorded_sweeps(monkeypatch, step_bytes)
        _grand_sum(t, r, False, exact)
        assert sweeps and all(built for *_, built in sweeps)
    if step_bytes < 16 << 20:
        assert all(len(peaks) > steps for _, steps, peaks, _ in sweeps)


@pytest.mark.parametrize("step_bytes", [4006 * 48, 20_000])
def test_float_and_exact_sweeps_split_alike(monkeypatch, step_bytes):
    # Each sweep sizes its row limit from its own tables, and both domains
    # carry 8-byte columns: the float sweep and every prime's exact sweep
    # split at the same steps and hold the same live states.
    t = load_asset("s2xs1")
    peaks = {}
    for exact in (False, True):
        sweeps = _recorded_sweeps(monkeypatch, step_bytes)
        _grand_sum(t, 5, False, exact)
        peaks[exact] = [(row_limit, p) for row_limit, _, p, _ in sweeps]
    (want,) = peaks[False]
    assert len(want[1]) > len(_Schedule(t).order)
    assert len(peaks[True]) >= 2 and all(got == want for got in peaks[True])


@pytest.mark.parametrize("r, even_only, live", [(7, True, 803_699), (6, False, 914_060)])
def test_s2xs1_float_sweeps_hold_known_live_states(monkeypatch, r, even_only, live):
    # The assignment order and the spanning forest set how many states a
    # sweep holds: these totals at 16 MiB steps guard against a wider
    # order or a worse forest.
    sweeps = _recorded_sweeps(monkeypatch, 16 << 20)
    _grand_sum(load_asset("s2xs1"), r, even_only, False)
    ((_, _, peaks, _),) = sweeps
    assert sum(peaks) == live


def test_sweep_rejects_s_values_of_the_wrong_length():
    # The tables fix the columns of a sweep, and s_values names them: a
    # name too few or too many raises, in either domain.
    import numpy as np

    t = boundary_4_simplex()
    r = 5
    reps = evaluation_points(r)
    rows = statesum._weight_rows(np, r, color_range(r))
    p, omega = next(_residue_primes(r))
    for domain in (statesum._float_column(reps), statesum._residue_column(r, reps, p, omega)):
        tables = statesum._vector_tables(np, rows, domain)
        for s_values in (reps[:1], reps + (r + 1,)):
            with pytest.raises(ValueError):
                _run_frontier_vector(_Schedule(t), s_values, tables)


def test_exact_s2xs1_at_r5_is_one():
    t = load_asset("s2xs1")
    grand, count = _grand_sum(t, 5, False, True)
    assert _prefactor(5, False) ** t.vertex_count * grand == CycloNum.one(5)
    for s in (1, 2, 3, 4, 6, 7, 8, 9):
        exact = tv(t, 5, s, method="exact")
        assert exact.value == 1.0 and exact.raw == 1
        assert exact.coloring_count == count == tv(t, 5, s, method="float").coloring_count


@pytest.mark.parametrize("r, count", [(6, 289569095233), (7, 70240028502016)])
def test_exact_s2xs1_is_one_with_and_without_a_self_flipped_color(r, count):
    # The gauge keeps the color (r-2)/2 of a forest edge once, undoubled,
    # at r=6; r=7 has no such color.
    res = tv(load_asset("s2xs1"), r, 1, method="exact")
    assert res.raw == 1 and res.value == 1.0
    assert res.coloring_count == count


def _random_admissible(t, r: int, rng: random.Random) -> Coloring:
    """A seeded random admissible coloring: depth-first over edge_order,
    each edge trying its colors in a shuffled order."""
    order = edge_order(t)
    completed = faces_completed_at(t, order)
    colors = [0] * len(t.edges)

    def advance(p: int) -> bool:
        if p == len(order):
            return True
        for x in rng.sample(color_range(r), r - 1):
            colors[order[p]] = x
            faces = (t.face_edges[f] for f in completed[p])
            if all(admissible_triple(*(colors[e] for e in f), r) for f in faces):
                if advance(p + 1):
                    return True
        return False

    assert advance(0)
    return Coloring(r, tuple(colors))


@pytest.mark.parametrize("name", ["s3_boundary4simplex", "s2xs1"])
def test_vertex_flip_keeps_coloring_weight(name):
    # The gauge of the all-color sums: the flip c -> r-2-c of every edge
    # at one vertex keeps a coloring admissible and its weight exactly.
    t = load_asset(name)
    rng = random.Random(f"flip:{name}")
    for r in (4, 5, 6, 7):
        for _ in range(4):
            c = _random_admissible(t, r, rng)
            w = coloring_weight(t, c)
            for v in range(t.vertex_count):
                flipped = Coloring(
                    r,
                    tuple(r - 2 - x if v in t.edges[e] else x for e, x in enumerate(c.colors)),
                )
                assert is_admissible(t, flipped)
                assert coloring_weight(t, flipped) == w, (r, v)


@pytest.mark.parametrize(
    "name, components", [("s3_boundary4simplex", 1), ("s2xs1", 1), ("two spheres", 2)]
)
@pytest.mark.parametrize("r", [3, 4, 5])
def test_forest_sweep_matches_full_sweep(monkeypatch, name, components, r):
    # One coloring per flip orbit, weighted by the orbit's size, gives the
    # sums and counts of the sweep over every coloring: the residues of
    # one prime exactly, the float sums to rounding.
    import numpy as np

    t = _grand_case(name)
    sched, forest, _ = statesum._schedule(t)
    assert len(forest) == t.vertex_count - components
    reps = evaluation_points(r)
    rows = statesum._weight_rows(np, r, color_range(r))
    p, omega = next(_residue_primes(r))
    tables = statesum._vector_tables(np, rows, statesum._residue_column(r, reps, p, omega))
    # A row limit of 10^9: no sweep splits.
    monkeypatch.setattr(statesum, "_STEP_BYTES", 10**9 * _row_bytes(tables))
    gauged = _run_frontier_vector(sched, reps, tables, forest=forest)
    assert gauged == _run_frontier_vector(sched, reps, tables)
    tables = statesum._vector_tables(np, rows, statesum._float_column(reps))
    (grands, count), (want, want_count) = (
        _run_frontier_vector(sched, reps, tables, forest=f) for f in (forest, frozenset())
    )
    assert count == want_count == gauged[1]
    for s, value in want.items():
        assert abs(grands[s] - value) <= 1e-12 * abs(value)


@pytest.mark.parametrize("name, forest_size", [("s3_boundary4simplex", 3), ("s2xs1", 8)])
def test_forest_sweep_matches_full_sweep_with_a_loop(name, forest_size):
    # Identifying the two ends of edge 0 makes it a loop; the faces and
    # tetrahedra keep their edge ids.  Kruskal never takes the loop, and
    # the gauge-fixed sweep must still give the residues and counts of
    # the sweep over every coloring.
    import numpy as np

    t = load_asset(name)
    a, b = t.edges[0]

    def glued(v):
        v = a if v == b else v
        return v - (v > b)

    m = SimpleNamespace(
        edges=[tuple(glued(v) for v in ends) for ends in t.edges],
        face_edges=t.face_edges,
        tet_edges=t.tet_edges,
        vertex_count=t.vertex_count - 1,
    )
    assert m.edges[0][0] == m.edges[0][1]
    sched = _Schedule(m)
    forest = statesum._spanning_forest(m, sched)
    assert 0 not in forest and len(forest) == m.vertex_count - 1 == forest_size
    for r in (4, 5, 6):
        reps = evaluation_points(r)
        rows = statesum._weight_rows(np, r, color_range(r))
        p, omega = next(_residue_primes(r))
        tables = statesum._vector_tables(np, rows, statesum._residue_column(r, reps, p, omega))
        gauged = _run_frontier_vector(sched, reps, tables, forest=forest)
        assert gauged == _run_frontier_vector(sched, reps, tables), r


def test_finish_rejects_unreal_sums():
    with pytest.raises(ArithmeticError, match="lost reality"):
        statesum._finish(1 + 1e-3j, 5, 1, False, 832)


def test_residue_tables_reject_asymmetric_weights():
    # The exact path carries one column per conjugate pair of roots, which
    # is sound only for weights fixed by zeta -> 1/zeta; zeta is not.
    import numpy as np

    edges, *rest = statesum._weight_rows(np, 3, (0, 1))
    bent = ([CycloNum.zeta_pow(3, 1)] + edges[1:], *rest)
    p, omega = next(_residue_primes(3))
    column = statesum._residue_column(3, (1, 2), p, omega)
    with pytest.raises(ArithmeticError, match="not fixed"):
        statesum._vector_tables(np, bent, column)


def test_float_tables_reject_unreal_weights():
    # The float path carries real columns, which is sound only for
    # weights that are real at every s; zeta is not.
    import numpy as np

    reps = (1, 2)
    rows = statesum._weight_rows(np, 3, (0, 1))
    tables = statesum._vector_tables(np, rows, statesum._float_column(reps))
    edge_tab, face_tab, _, tet_tab, _, modulus = tables
    assert all(tab.dtype == np.float64 for tab in (edge_tab, face_tab, tet_tab))
    assert modulus is None
    edges, *rest = rows
    bent = ([CycloNum.zeta_pow(3, 1)] + edges[1:], *rest)
    with pytest.raises(ArithmeticError, match="not real at s=1"):
        statesum._vector_tables(np, bent, statesum._float_column(reps))


def test_tetrahedron_table_is_compact():
    # Tetrahedra and faces alike: one table row per admissible digit
    # tuple, and the int32 row map is -1 exactly where one of the
    # tetrahedron's four faces, or the face, is inadmissible.
    import numpy as np
    from itertools import product

    r = 6
    colors = color_range(r)
    reps = evaluation_points(r)
    rows = statesum._weight_rows(np, r, colors)
    _, face_tab, face_row, tet_tab, tet_row, _ = statesum._vector_tables(
        np, rows, statesum._float_column(reps)
    )
    tet_faces = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
    for tab, row_map, size, slots, faces in (
        (tet_tab, tet_row, 329, 6, tet_faces),
        (face_tab, face_row, 35, 3, ((0, 1, 2),)),
    ):
        assert tab.shape == (size, len(reps))
        assert row_map.dtype == np.int32
        want = [
            all(admissible_triple(*(tup[q] for q in tri), r) for tri in faces)
            for tup in product(colors, repeat=slots)
        ]
        assert ((row_map >= 0) == np.array(want)).all()
        assert sorted(row_map[row_map >= 0].tolist()) == list(range(size))


def test_weight_rows_built_once_per_exact_sum(monkeypatch):
    calls = {"_weight_rows": 0, "_vector_tables": 0, "_run_frontier_vector": 0}

    def counted(name):
        real = getattr(statesum, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(statesum, name, counted(name))
    monkeypatch.setattr(statesum, "_GRAND_CACHE", WeakKeyDictionary())
    tv(boundary_4_simplex(), 7, 1, method="exact")
    # One set of weight rows, and one table build per prime's sweep.
    assert calls["_run_frontier_vector"] >= 2
    assert calls["_weight_rows"] == 1
    assert calls["_vector_tables"] == calls["_run_frontier_vector"]


def test_exact_sum_shares_engine_limits():
    # The exact path runs on the vector engine, so it meets the same
    # int64 count and 62-bit key limits as the float path, loudly.
    t = boundary_4_simplex()
    five = t
    for _ in range(4):
        five = disjoint_union(five, t)
    with pytest.raises(ArithmeticError, match="int64"):
        tv(five, 7, 1, method="exact")
    with pytest.raises(ValueError, match="too wide to pack"):
        tv(load_asset("s2xs1"), 18, 1, method="exact")


@pytest.mark.parametrize(
    "name, peak_width", [("s3_boundary4simplex", 9), ("s2xs1", 15)]
)
def test_schedule_follows_edge_order_with_known_peak_width(name, peak_width):
    t = load_asset(name)
    sched = _Schedule(t)
    assert sched.order == edge_order(t)
    assert max(len(a) for a in sched.active_after) == peak_width
    # Vector keys: one digit per live edge, as many digits as the peak
    # width, and the edges that retire at a step hold the lowest digits of
    # its parents' keys.
    assert sched.slot_count == peak_width
    for p, active in enumerate(sched.active_after):
        live = {e for e in sched.order[: p + 1] if sched.last_use[e] > p}
        assert len(active) == len(live) and set(active) == live
        retiring = [e for e in active if sched.last_use[e] == p + 1]
        assert list(active[: len(retiring)]) == retiring


def test_key_packing_limit_raises_before_tables(monkeypatch):
    def no_tables(*args):
        raise AssertionError("weight tables built for an unpackable frontier")

    monkeypatch.setattr(statesum, "_vector_tables", no_tables)
    t = load_asset("s2xs1")
    # 15 slots: 16 colors (r=17) take 4 bits each, 60 in all; 17 colors
    # (r=18) take 5 bits, 75 in all.
    assert _key_bits(_Schedule(t), 16) == 4
    with pytest.raises(ValueError, match="too wide to pack"):
        _key_bits(_Schedule(t), 17)
    with pytest.raises(ValueError, match="too wide to pack"):
        tv(t, 18, 1, method="float")
    # The refined sum packs color indices: 5 even colors at r=11 fit.
    assert _key_bits(_Schedule(t), 5) == 3


def test_int32_table_index_limit_raises_before_weights(monkeypatch):
    def no_rows(*args):
        raise AssertionError("weight rows built for an unindexable table")

    monkeypatch.setattr(statesum, "_weight_rows", no_rows)
    # 37 colors at r=38: 37^6 > 2^31 - 1 tetrahedron digit tuples, while
    # the sphere's 9 slots of 6 bits still pack into a key.
    with pytest.raises(ValueError, match="int32"):
        tv(boundary_4_simplex(), 38, 1, method="float")


def test_float_count_overflow_raises():
    # Five disjoint spheres have 16064^5 ~ 1.1e21 colorings at r=7, past
    # int64: the sweep must stop instead of wrapping the count.
    t = boundary_4_simplex()
    five = t
    for _ in range(4):
        five = disjoint_union(five, t)
    with pytest.raises(ArithmeticError, match="int64"):
        tv(five, 7, 1, method="float")


def test_over_budget_sweep_splits_frontier(monkeypatch):
    t = load_asset("s2xs1")
    reps = (1, 2, 3, 4)
    direct = {s: tv(t, 5, s, method="float") for s in reps}

    splits = {}
    # The children of the r=5 peak (1,800 states of 4 colors) pass the
    # row limit of either step size (4,166 and 416 rows), and at both the
    # parts of a split pass it again and are split anew.
    for step_bytes in (200_000, 20_000):
        sweeps = _recorded_sweeps(monkeypatch, step_bytes)
        split = {s: tv(t, 5, s, method="float") for s in reps}
        ((_, steps, peaks, _),) = sweeps
        # Each part repeats the steps from its split to its merge.
        splits[step_bytes] = len(peaks) - steps
        _assert_steps_within_limit(sweeps)
        for s in reps:
            assert abs(split[s].raw - direct[s].raw) <= 1e-12 * abs(direct[s].raw)
            assert split[s].coloring_count == direct[s].coloring_count
    assert 0 < splits[200_000] < splits[20_000]


def _float_sweep(t, r: int, row_limit: int, forest=frozenset()):
    """One all-color float sweep over t with the given forest edges, its
    steps sized to row_limit rows of its tables: (grand sums, coloring
    count, live states after every step of every part)."""
    import numpy as np

    reps = evaluation_points(r)
    rows = statesum._weight_rows(np, r, color_range(r))
    tables = statesum._vector_tables(np, rows, statesum._float_column(reps))
    peaks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statesum, "_STEP_BYTES", row_limit * _row_bytes(tables))
        grands, count = _run_frontier_vector(
            _Schedule(t), reps, tables, peak_out=peaks, forest=forest
        )
    return grands, count, peaks


@pytest.mark.parametrize(
    "name, r, row_limit", [("two spheres", 6, 200), ("s2xs1", 5, 4006)]
)
def test_split_parts_merge_back(name, r, row_limit):
    # The parts of a split merge at the step where the split edge retires,
    # so a tiny row limit builds about the rows of one unsplit sweep
    # (16,604 and 1,752,841 here); parts carried on to the last step built
    # 1.54M and 4.34M.
    t = _grand_case(name)
    whole, whole_count, whole_peaks = _float_sweep(t, r, 10**9)
    split, split_count, split_peaks = _float_sweep(t, r, row_limit)
    assert len(split_peaks) > len(whole_peaks) == len(_Schedule(t).order)
    assert sum(split_peaks) <= 1.05 * sum(whole_peaks)
    assert split_count == whole_count
    for s, value in whole.items():
        assert abs(split[s] - value) <= 1e-12 * abs(value)


def test_split_parts_whose_children_all_fail_their_checks():
    # At a 30-row limit the gauged r=5 sweep splits down to parts so
    # small that every child of some of them fails a face or tetrahedron
    # check: such a part ends with no rows, records its 0 live states,
    # and adds nothing at the merge-back.
    t = load_asset("s2xs1")
    _, forest, _ = statesum._schedule(t)
    whole, whole_count, _ = _float_sweep(t, 5, 10**9, forest)
    split, split_count, split_peaks = _float_sweep(t, 5, 30, forest)
    assert 0 in split_peaks
    assert split_count == whole_count == 601_550_848
    for s, value in whole.items():
        assert abs(split[s] - value) <= 1e-12 * abs(value)


def test_count_guard_at_the_merge_of_split_parts():
    # Edges in no face or tetrahedron retire at once and multiply every
    # count by the 4 colors of r=5 in one row.  With the sphere's 832
    # colorings, 26 of them give 4^26 * 832 ~ 0.41 * 2^63 colorings, which
    # fit int64, and 27 give 1.6 * 2^63, which do not.  Whether a sum
    # fits must not depend on the row limit: unsplit, the counts pass
    # int64 at a step's merge of its color runs; at a row limit of 100,
    # at the merge of a split's parts.
    t = boundary_4_simplex()

    def with_free_edges(k):
        return SimpleNamespace(
            edges=[None] * k + list(t.edges),
            face_edges=tuple(tuple(e + k for e in f) for f in t.face_edges),
            tet_edges=tuple(tuple(e + k for e in slots) for slots in t.tet_edges),
        )

    m = with_free_edges(26)
    whole, whole_count, _ = _float_sweep(m, 5, 10**9)
    split, split_count, _ = _float_sweep(m, 5, 100)
    assert whole_count == split_count == 4**26 * 832
    for s, value in whole.items():
        assert abs(split[s] - value) <= 1e-12 * abs(value)
    m = with_free_edges(27)
    for row_limit in (10**9, 100):
        with pytest.raises(ArithmeticError, match=r"passes int64 at step \d+"):
            _float_sweep(m, 5, row_limit)


def test_count_guard_before_doubling():
    # Counts double at a forest edge's colors, after the merge's exact
    # check, so a doubling that passes int64 raises instead of wrapping.
    # Free edges (in no face) come last in edge_order; passed as
    # forest edges at r=3 each keeps its one color 0, doubled, so 58 of
    # them give the sphere's 16 colorings 2^62 in all, which fit int64,
    # and 59 give 2^63 at the last doubling, which do not.  Free edges
    # are no vertex flip's gauge, so only the counts are checked.
    t = boundary_4_simplex()
    for k in (58, 59):
        m = SimpleNamespace(
            edges=list(t.edges) + [None] * k, face_edges=t.face_edges, tet_edges=t.tet_edges
        )
        forest = frozenset(range(len(t.edges), len(m.edges)))
        for row_limit in (10**9, 100):
            if k == 58:
                assert _float_sweep(m, 3, row_limit, forest)[1] == 2**62
                continue
            with pytest.raises(ArithmeticError, match=r"passes int64 at step 68 "):
                _float_sweep(m, 3, row_limit, forest)


def _edge_merges(t):
    """t with edge ids i < j made one, for every pair (i, j): some merges
    make one edge fill two slots of a face or a tetrahedron."""
    for i, j in combinations(range(len(t.edges)), 2):

        def merged(ids):
            return tuple(i if e == j else e - (e > j) for e in ids)

        yield (i, j), SimpleNamespace(
            edges=t.edges[:-1],
            face_edges=tuple(merged(f) for f in t.face_edges),
            tet_edges=tuple(merged(slots) for slots in t.tet_edges),
        )


@pytest.mark.parametrize("r", [4, 5])
def test_engine_handles_an_edge_that_fills_two_slots(monkeypatch, r):
    # Merging two edge ids of the sphere makes one edge fill two slots of
    # a face or a tetrahedron for some merges; the engine must place its
    # digit at every slot it fills.  The oracle is the enumeration.
    import numpy as np

    t = load_asset("s3_boundary4simplex")
    colors = color_range(r)
    reps = evaluation_points(r)
    rows = statesum._weight_rows(np, r, colors)
    column = statesum._float_column(reps)
    tables = statesum._vector_tables(np, rows, column)
    # A row limit of 10^9: no sweep splits.
    monkeypatch.setattr(statesum, "_STEP_BYTES", 10**9 * _row_bytes(tables))
    for (i, j), m in _edge_merges(t):
        weights = [coloring_weight(m, c) for c in enumerate_admissible(m, r)]
        grands, count = statesum._run_frontier_vector(_Schedule(m), reps, tables)
        assert count == len(weights), (i, j)
        for s in reps:
            want = sum(w.evaluate(s) for w in weights).real
            assert abs(grands[s] - want) <= 1e-9 * (1 + abs(want)), (i, j, s)


def test_every_weight_rides_on_the_first_tetrahedron_that_holds_it():
    # _Schedule.checks carries each face (as an edge multiset) and each
    # edge exactly once, on the first tetrahedron to complete that holds
    # it, which completes no earlier than it; the loose checks of a step
    # are the faces that complete there and that no tetrahedron
    # completing there holds.
    sphere = load_asset("s3_boundary4simplex")
    s2xs1 = load_asset("s2xs1")
    cases = [sphere, s2xs1, disjoint_union(sphere, s2xs1)]
    cases += [m for _, m in _edge_merges(sphere)]
    for t in cases:
        sched = _Schedule(t)
        pos = {e: p for p, e in enumerate(sched.order)}
        faces = Counter(tuple(sorted(f)) for f in t.face_edges)
        edges = {e for slots in t.tet_edges for e in slots}
        for p, checks in enumerate(sched.checks):
            loose = [ids for ids, kind in checks if kind is None]
            tets = [(ids, kind) for ids, kind in checks if kind is not None]
            # The loose faces come first, then every tetrahedron that
            # completes at p.
            assert checks[: len(loose)] == [(f, None) for f in loose]
            assert [ids for ids, _ in tets] == sched.tet_checks[p]
            assert all(max(pos[e] for e in slots) == p for slots, _ in tets)
            held = {
                tuple(sorted(slots[q] for q in tri))
                for slots, _ in tets
                for tri in statesum._TET_FACES
            }
            completing = [f for f in t.face_edges if max(pos[e] for e in f) == p]
            assert sorted(loose) == sorted(
                f for f in completing if tuple(sorted(f)) not in held
            )
            for slots, (tris, carried) in tets:
                # A tetrahedron carries every face and edge it holds that
                # no earlier one carries, each once.
                mine = Counter(tuple(sorted(slots[q] for q in tri)) for tri in tris)
                left = {tuple(sorted(slots[q] for q in tri)) for tri in statesum._TET_FACES}
                assert mine == Counter({f: faces[f] for f in left if faces[f]})
                for f in mine:
                    assert max(pos[e] for e in f) <= p
                    del faces[f]
                first_left = [e for e in dict.fromkeys(slots) if e in edges]
                assert [slots[q] for q in carried] == first_left
                assert all(pos[slots[q]] <= p for q in carried)
                edges -= set(slots)
        assert not faces and not edges


def test_repeated_calls_are_consistent():
    t = boundary_4_simplex()
    first = tv(t, 6, 1)
    second = tv(t, 6, 1)
    assert first == second


def test_validation_errors():
    t = boundary_4_simplex()
    with pytest.raises(ValueError):
        tv(t, 2, 1)
    with pytest.raises(ValueError):
        tv(t, 6, 2)
    with pytest.raises(ValueError):
        tv_prime(t, 6, 1)
    with pytest.raises(ValueError):
        tv_prime(t, 5, 3)
    with pytest.raises(ValueError):
        tv(t, 5, 1, method="symbolic")


def test_state_sums_reject_pseudo_manifolds():
    # Two 3-spheres sharing one vertex (as in test_complex3): every face
    # is shared by two tetrahedra, but the vertex link is two 2-spheres.
    # No Triangulation exists for it, so no state sum ever sees it.
    label = list(combinations(range(5), 4))
    with pytest.raises(TriangulationError, match="vertex 0 link"):
        Triangulation(label + [tuple(0 if v == 0 else v + 4 for v in q) for q in label])


def test_result_fields():
    t = boundary_4_simplex()
    res = tv(t, 3, 1)
    assert isinstance(res, StateSumResult)
    assert res.r == 3 and res.s == 1 and res.refined is False
    assert res.coloring_count == sum(1 for _ in enumerate_admissible(t, 3))
    assert abs(res.raw.imag) < 1e-12
    refined = tv_prime(t, 5, 2)
    assert refined.refined is True
    assert refined.coloring_count == sum(
        1 for _ in enumerate_admissible(t, 5, even_only=True)
    )
