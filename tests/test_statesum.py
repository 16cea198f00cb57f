"""State-sum weights and invariants against closed forms and independent oracles."""

import math
import random
from fractions import Fraction
from itertools import combinations
from weakref import WeakKeyDictionary

import pytest

from quantum3 import statesum
from quantum3.complex3 import (
    Coloring,
    Triangulation,
    admissible_triple,
    color_range,
    disjoint_union,
    enumerate_admissible,
    greedy_edge_order,
    is_admissible,
    load_asset,
    normal_surface_euler_parity,
    split_coloring,
)
from quantum3.cyclo import CycloNum, _residue_primes
from quantum3.statesum import (
    StateSumResult,
    _edge_weight,
    _face_weight,
    _grand_sum,
    _key_bits,
    _prefactor,
    _Schedule,
    _tet_weight,
    coloring_weight,
    tv,
    tv_prime,
    weight_edge,
    weight_face,
    weight_tet,
)


def boundary_4_simplex() -> Triangulation:
    return Triangulation(list(combinations(range(5), 4)))


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
    c = Coloring(5, (0, 1, 3))
    assert weight_edge(c, 0) == CycloNum.one(5)
    got = weight_edge(c, 1).evaluate(1)
    assert abs(got - (-2 * math.cos(math.pi / 5))) < 1e-12
    # (-1)^3 [4] and [4] = [1] at r = 5, so the weight is -1.
    assert abs(weight_edge(c, 2).evaluate(1) - (-1)) < 1e-12


def test_face_weight_examples():
    c3 = Coloring(3, (1, 1, 0))
    assert abs(weight_face(c3, (0, 1, 2)).evaluate(1) - (-1)) < 1e-12
    c5 = Coloring(5, (2, 2, 2))
    expected = -1.0 / (qint(2, 5) * qint(3, 5) * qint(4, 5))
    assert abs(weight_face(c5, (0, 1, 2)).evaluate(1) - expected) < 1e-12


def test_face_weight_rejects_inadmissible():
    c = Coloring(5, (1, 1, 1))
    with pytest.raises(ValueError):
        weight_face(c, (0, 1, 2))


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


def test_weight_level_mismatch_raises():
    c = Coloring(5, (0, 0, 0))
    with pytest.raises(ValueError):
        weight_edge(c, 0, r=7)
    with pytest.raises(ValueError):
        weight_face(c, (0, 1, 2), r=7)
    with pytest.raises(ValueError):
        weight_tet(c, (0, 1, 2, 0, 1, 2), r=7)


def test_memoized_tet_weight_matches_unmemoized():
    raw = _tet_weight.__wrapped__
    rng = random.Random(3)
    for _ in range(50):
        tup = tuple(rng.randrange(4) for _ in range(6))
        try:
            expected = raw(*tup, 5)
        except ValueError:
            with pytest.raises(ValueError):
                _tet_weight(*tup, 5)
            continue
        assert _tet_weight(*tup, 5) == expected


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
    for r in (3, 4, 5, 6, 7):
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
    for c in rng.sample(cs, 40):
        c3, cp = split_coloring(c)
        for e in range(len(t.edges)):
            lhs = weight_edge(c, e).evaluate(s)
            rhs = weight_edge(c3, e).evaluate(2) * weight_edge(cp, e).evaluate(s)
            assert abs(lhs - rhs) < 1e-10
        for f in t.face_edges:
            lhs = weight_face(c, f).evaluate(s)
            rhs = weight_face(c3, f).evaluate(2) * weight_face(cp, f).evaluate(s)
            assert abs(lhs - rhs) < 1e-10
        for slots in t.tet_edges:
            lhs = weight_tet(c, slots).evaluate(s)
            rhs = weight_tet(c3, slots).evaluate(2) * weight_tet(cp, slots).evaluate(s)
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
    # Measured against exact: at most 1.7e-14 relative on the sphere and
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


def test_exact_grand_sum_survives_frontier_splits(monkeypatch):
    t = load_asset("s2xs1")
    want, want_count = dict_frontier_sum(_Schedule(t), 4, False)
    real_sweep = statesum._run_frontier_vector
    sweeps = []

    def recording_sweep(*args, **kwargs):
        peaks = []
        sweeps.append((args[5], peaks))
        return real_sweep(*args, peak_out=peaks, **kwargs)

    monkeypatch.setattr(statesum, "_run_frontier_vector", recording_sweep)
    monkeypatch.setattr(statesum, "_GRAND_CACHE", WeakKeyDictionary())
    monkeypatch.setattr(statesum, "_MEMORY_BUDGET", 500_000)
    grand, count = _grand_sum(t, 4, False, True)
    assert (grand._num, grand._den, count) == (want._num, want._den, want_count)
    # Every prime's sweep split its frontier.
    assert sweeps and all(any(n > limit for n in peaks) for limit, peaks in sweeps)


def test_exact_s2xs1_at_r5_is_one():
    t = load_asset("s2xs1")
    grand, count = _grand_sum(t, 5, False, True)
    assert _prefactor(5, False) ** t.vertex_count * grand == CycloNum.one(5)
    for s in (1, 2, 3, 4, 6, 7, 8, 9):
        exact = tv(t, 5, s, method="exact")
        assert exact.value == 1.0 and exact.raw == 1
        assert exact.coloring_count == count == tv(t, 5, s, method="float").coloring_count


def test_residue_tables_reject_asymmetric_weights():
    # The exact path carries one column per conjugate pair of roots, which
    # is sound only for weights fixed by zeta -> 1/zeta; zeta is not.
    import numpy as np

    edges, *rest = statesum._weight_rows(np, 3, (0, 1))
    bent = ([CycloNum.zeta_pow(3, 1)] + edges[1:], *rest)
    p, omega = next(_residue_primes(3))
    column = statesum._residue_column(3, (1, 2), p, omega)
    with pytest.raises(ArithmeticError, match="not fixed"):
        statesum._vector_tables(np, bent, 2, np.int64, column)


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
        tv(load_asset("s2xs1"), 10, 1, method="exact")


@pytest.mark.parametrize(
    "name, peak_width", [("s3_boundary4simplex", 9), ("s2xs1", 18)]
)
def test_schedule_is_greedy_with_known_peak_width(name, peak_width):
    t = load_asset(name)
    sched = _Schedule(t)
    assert sched.order == greedy_edge_order(t)
    assert max(len(a) for a in sched.active_after) == peak_width
    # Vector keys: one bit slot per frontier edge, never shared by two
    # edges active at once, and no more slots than the peak width.
    assert sched.slot_count == peak_width
    for active in sched.active_after:
        assert len({sched.slot[e] for e in active}) == len(active)


def test_key_packing_limit_raises_before_tables(monkeypatch):
    def no_tables(*args):
        raise AssertionError("weight tables built for an unpackable frontier")

    monkeypatch.setattr(statesum, "_vector_tables", no_tables)
    t = load_asset("s2xs1")
    # 18 slots: 8 colors (r=9) take 3 bits each, 54 in all; 9 colors
    # (r=10) take 4 bits, 72 in all.
    assert _key_bits(_Schedule(t), 8) == 3
    with pytest.raises(ValueError, match="too wide to pack"):
        tv(t, 10, 1, method="float")
    # The refined sum packs color indices: 5 even colors at r=11 fit.
    assert _key_bits(_Schedule(t), 5) == 3


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

    real_sweep = statesum._run_frontier_vector
    splits = {}
    # The r=5 peak (206592 states) passes the row limit of either budget;
    # at 0.5 MB the parts of a split pass it again and are split anew.
    for budget in (5_000_000, 500_000):
        sweeps = []

        def recording_sweep(sched, r, even_only, s_values, tables, row_limit):
            peaks = []
            sweeps.append((row_limit, peaks))
            return real_sweep(
                sched, r, even_only, s_values, tables, row_limit, peak_out=peaks
            )

        monkeypatch.setattr(statesum, "_run_frontier_vector", recording_sweep)
        monkeypatch.setattr(statesum, "_GRAND_CACHE", WeakKeyDictionary())
        monkeypatch.setattr(statesum, "_MEMORY_BUDGET", budget)
        split = {s: tv(t, 5, s, method="float") for s in reps}
        ((row_limit, peaks),) = sweeps
        splits[budget] = sum(n > row_limit for n in peaks)
        for s in reps:
            assert abs(split[s].raw - direct[s].raw) <= 1e-12 * abs(direct[s].raw)
            assert split[s].coloring_count == direct[s].coloring_count
    assert 0 < splits[5_000_000] < splits[500_000]


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
