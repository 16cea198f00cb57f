"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each criterion below runs end to end against the public API; a failure line
names the guarantee it breaks.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from quantum3.complex3 import (
    enumerate_admissible,
    load_asset,
    normal_surface_euler_parity,
    split_coloring,
)
from quantum3.hempel import report
from quantum3.seifert import (
    SeifertSymbol,
    dedekind_sum,
    hansen_ratio,
    tv_closed_form,
)
from quantum3.statesum import coloring_weight, tv, tv_prime

from helpers import boundary_4_simplex, brute_force_count, cotangent_sum


def test_criterion_01_sphere_anchor_under_60s():
    t = load_asset("s3_boundary4simplex")
    start = time.monotonic()
    for r in (3, 4, 5, 6, 7):
        got = tv(t, r, 1).value
        want = (2 / r) * math.sin(math.pi / r) ** 2
        assert got == pytest.approx(want, rel=1e-9), f"TV_{{{r},1}} on the sphere"
    for r in (5, 7):
        got = tv_prime(t, r, r - 1).value
        want = (4 / r) * math.sin(math.pi / r) ** 2
        assert got == pytest.approx(want, rel=1e-9), f"TV'_{{{r},{r-1}}} on the sphere"
    assert time.monotonic() - start < 60.0


def test_criterion_02_s2xs1_anchor():
    t = load_asset("s2xs1")
    for r in (3, 4, 5):
        got = tv(t, r, 1, method="float").value
        assert got == pytest.approx(1.0, rel=1e-8), f"TV_{{{r},1}} on S2 x S1"


@pytest.mark.parametrize("name", ["s3_boundary4simplex", "s2xs1"])
@pytest.mark.parametrize("r", [5, 7])
def test_criterion_03_splitting(name, r):
    t = load_asset(name)
    v31 = tv(t, 3, 1, method="float").value
    v32 = tv(t, 3, 2, method="float").value
    for s in range(1, r):
        if math.gcd(s, r) != 1:
            continue
        full = tv(t, r, s, method="float").value
        if s % 2 == 0:
            product = v32 * tv_prime(t, r, s, method="float").value
        else:
            product = v31 * tv_prime(t, r, r - s, method="float").value
        assert abs(full - product) <= 1e-9 * (1.0 + abs(full)), (
            f"TV_{{{r},{s}}} vs split product on {name}"
        )


def test_criterion_04_sign_change():
    t = boundary_4_simplex()
    for c in enumerate_admissible(t, 5):
        w = coloring_weight(t, c)
        c3, _ = split_coloring(c)
        parity = normal_surface_euler_parity(t, c3)
        lhs = w.evaluate(1)
        rhs = (-1) ** parity * w.evaluate(4)
        assert abs(lhs - rhs) <= 1e-10, f"coloring {tuple(c.colors)}"


@pytest.mark.parametrize("n", [0, 2, 4])
@pytest.mark.parametrize("g", [0, 1])
@pytest.mark.parametrize("a", [5, 7])
def test_criterion_05_hansen_vs_closed_form(a, g, n):
    pairs = tuple((a, 1) for _ in range(n // 2)) + tuple(
        (a, -1) for _ in range(n // 2)
    )
    sym = SeifertSymbol(g, pairs)
    measured = abs(hansen_ratio(sym, a)) ** 2
    closed = tv_closed_form(sym, 1, a=a)
    assert closed != 0.0
    assert measured == pytest.approx(closed, rel=1e-8), (
        f"(g={g}; (a,+-1) x {n}) at a={a}: squared ratio {measured:.12g} vs "
        f"closed form {closed:.12g}."
    )


def test_criterion_06_vanishing():
    for text, a in (("0; 5/1, 5/1, 5/-2", 5), ("0; 7/1, 7/1, 7/1, 7/-3", 7)):
        sym = SeifertSymbol.parse(text)
        for r in (a, 2 * a):
            assert abs(hansen_ratio(sym, r)) < 1e-9, f"({text}) at r={r}"


def test_criterion_07_distinguishable_pair():
    rep = report(SeifertSymbol.parse("0; 7/1, 7/1, 7/-1, 7/-1"), 2, 7)
    assert rep.verdict == "distinguishable(7,1)"
    row = next(r for r in rep.rows if r.r == 7 and r.s == 1 and not r.refined)
    assert row.equal is False
    assert row.value_a == pytest.approx(86.409, abs=0.01)
    assert row.value_b == pytest.approx(8.197, abs=0.01)
    factor = (math.sin(2 * math.pi / 7) / math.sin(math.pi / 7)) ** 4
    assert row.value_a / row.value_b == pytest.approx(factor, rel=1e-8)


def test_criterion_08_indistinguishable_pair():
    rep = report(SeifertSymbol.parse("0; 5/1, 5/1, 5/-2"), 2, 12, tol=1e-8)
    computed = [r for r in rep.rows if r.status != "out_of_scope"]
    assert computed and all(r.equal for r in computed)
    for row in computed:
        if row.r % 5 == 0:
            assert row.value_a == 0.0 and row.value_b == 0.0, f"r={row.r}"
        else:
            assert math.gcd(row.r, 5) == 1
            assert abs(row.value_a - round(row.value_a)) < 1e-6, f"r={row.r}"
            assert abs(row.value_b - round(row.value_b)) < 1e-6, f"r={row.r}"


def test_criterion_09_dedekind_sums():
    rng = random.Random(20260815)
    checked = 0
    while checked < 200:
        a = rng.randrange(2, 5001)
        b = rng.randrange(1, a)
        if math.gcd(a, b) != 1:
            continue
        checked += 1
        exact = dedekind_sum(b, a)
        assert abs(float(exact) - cotangent_sum(b, a)) <= 1e-9, f"s({b},{a})"
        reciprocity = dedekind_sum(b, a) + dedekind_sum(a, b)
        assert reciprocity == Fraction(-1, 4) + Fraction(
            a * a + b * b + 1, 12 * a * b
        ), f"reciprocity at ({b},{a})"


def test_criterion_10_enumeration_oracle():
    t = boundary_4_simplex()
    for r in (3, 4, 5):
        got = sum(1 for _ in enumerate_admissible(t, r))
        assert got == brute_force_count(t, r), f"|A_{r}| on the sphere"
    a3 = sum(1 for _ in enumerate_admissible(t, 3))
    for r in (5, 7):
        full = sum(1 for _ in enumerate_admissible(t, r))
        refined = sum(1 for _ in enumerate_admissible(t, r, True))
        assert full == a3 * refined, f"|A_{r}| = |A_3| * |A'_{r}|"
