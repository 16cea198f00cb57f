"""Seifert symbols, Dedekind sums, the surgery-formula ratio, and closed forms."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from quantum3.complex3 import load_asset
from quantum3.seifert import (
    SeifertSymbol,
    UnitCertificate,
    _z_full,
    check_unit_criterion,
    dedekind_sum,
    euler_number,
    hansen_ratio,
    level_route,
    same_manifold,
    tv_closed_form,
    tv_prime_seifert,
    tv_seifert,
)
from quantum3.statesum import tv, tv_prime

from helpers import cotangent_sum, sym


def fraction_phase(frac: Fraction) -> complex:
    """e^{i pi frac} with the exact rational argument reduced mod 2."""
    return cmath.exp(1j * math.pi * float(frac % 2))


def fraction_z_full(symbol: SeifertSymbol, r: int, b_star: list[int]) -> complex:
    """Independent oracle for _z_full: the triple sum over (gamma, mu, m)
    with every phase exponent an exact Fraction, reduced mod 2 before
    exponentiation.  It sums the m terms in another grouping than the
    kernel, so the two agree only to rounding (Z_ORACLE_TOL)."""
    e_num = euler_number(symbol)
    sin_exp = symbol.n + 2 * symbol.g - 2
    total = 0j
    for gamma in range(1, r):
        term = fraction_phase(Fraction(gamma * gamma, 2 * r) * e_num)
        term *= math.sin(math.pi * gamma / r) ** (-sin_exp)
        for j, (a, _) in enumerate(symbol.pairs):
            fiber = 0j
            for mu in (1, -1):
                for m in range(a):
                    expo = Fraction(-(2 * r * m + mu) * gamma, a * r) + Fraction(
                        -2 * (r * m * m + mu * m) * b_star[j], a
                    )
                    fiber += mu * fraction_phase(expo)
            term *= fiber
        total += term
    return total


def grouped_fraction_z_full(symbol: SeifertSymbol, r: int, b_star: list[int]) -> complex:
    """Oracle for _z_full in its own grouping: fiber j's sum at gamma is
    e^{-i pi gamma/(a r)} H(gamma + c) - e^{i pi gamma/(a r)} H(gamma - c)
    with c = b*_j and the Gauss row H(t) = sum_m e^{-2 pi i (m t + r c m^2)/a},
    built from its first gcd(2 r c, a) entries by
    H(t + 2 r c k) = e^{2 pi i (r c k^2 + t k)/a} H(t).  Every phase is an
    exact Fraction reduced mod 2, with c and r c left unreduced, and the
    operations come in the kernel's order, so the result is bit-identical."""
    e_num = euler_number(symbol)
    sin_exp = symbol.n + 2 * symbol.g - 2

    def gauss_row(a: int, q: int) -> list[complex]:
        g = math.gcd(2 * q, a)
        row = [0j] * a
        for t in range(g):
            h = sum(fraction_phase(Fraction(-2 * (m * t + q * m * m), a)) for m in range(a))
            for k in range(a // g):
                row[(t + 2 * q * k) % a] = fraction_phase(Fraction(2 * (q * k * k + t * k), a)) * h
        return row

    rows = [gauss_row(a, r * c) for (a, _), c in zip(symbol.pairs, b_star)]
    total = 0j
    for gamma in range(1, r):
        term = fraction_phase(Fraction(gamma * gamma, 2 * r) * e_num)
        term *= math.sin(math.pi * gamma / r) ** (-sin_exp)
        for (a, _), c, row in zip(symbol.pairs, b_star, rows):
            half = fraction_phase(Fraction(gamma, a * r))
            term *= half.conjugate() * row[(gamma + c) % a] - half * row[(gamma - c) % a]
        total += term
    return total


# |_z_full - fraction_z_full| <= Z_ORACLE_TOL (1 + |Z|): the two groupings
# round differently, by up to 2.7e-12 (1 + |Z|) over ORACLE_CASES, at a
# true zero at r=99 (|Z| ~ 2e-12).
Z_ORACLE_TOL = 1e-11

# Symbols and levels of the oracle tests: both paper pairs and their
# iterates, mixed cone orders, E != 0 ("1; 3/1, 5/2", "0; 4/1, 6/1"), S^3
# and S^2 x S^1 at r=3..40; the paper pairs and iterates at levels past 40
# up to the Hempel report's r_max = 100, prime and composite; and a cone
# order larger than 2(r-1), where the gammas read only part of a row.
ORACLE_TEXTS = [
    "0; 7/1, 7/1, 7/-1, 7/-1",
    "0; 7/4, 7/4, 7/-4, 7/-4",
    "0; 7/5, 7/5, 7/-5, 7/-5",
    "0; 5/1, 5/1, 5/-2",
    "0; 5/3, 5/3, 5/-6",
    "0; 5/2, 5/2, 5/-4",
    "0; 7/1, 7/2, 7/-3",
    "1; 3/1, 5/2",
    "0; 2/1, 8/-1, 8/-3",
    "2; 7/1, 7/-1",
    "0; 4/1, 6/1",
    "0; 1/1",
    "0;",
]
ORACLE_CASES = (
    [(text, r) for text in ORACLE_TEXTS for r in range(3, 41)]
    + [(text, r) for text in ORACLE_TEXTS[:6] for r in (41, 64, 97, 99)]
    + [("0; 11/1, 11/-1", r) for r in (3, 4, 5)]
)
# b* is read mod a: shifted and negative representatives for
# "0; 5/2, 5/2, 5/-4, 1/1", whose least inverses are 3, 3, 1, 0.
SHIFTED_TEXT = "0; 5/2, 5/2, 5/-4, 1/1"
SHIFTED_B_STAR = [3 + 5, 3 - 10, 1 + 15, -7]


def pm_vectors(n: int):
    if n == 0:
        yield ()
        return
    for rest in pm_vectors(n - 1):
        yield (1,) + rest
        yield (-1,) + rest


def z_simplified(symbol: SeifertSymbol, r: int) -> complex:
    """Z_r for a uniform cone order a dividing r with zero Euler number:
    the m sums collapse to a Kronecker delta on gamma + b*_j mu_j = 0
    (mod a)."""
    a = symbol.pairs[0][0]
    assert all(aj == a for aj, _ in symbol.pairs) and r % a == 0
    assert euler_number(symbol) == 0
    b_star = [pow(b, -1, a) for _, b in symbol.pairs]
    n, g = symbol.n, symbol.g
    sin_exp = n + 2 * g - 2
    total = 0j
    for gamma in range(1, r):
        for mu_vec in pm_vectors(n):
            if any((gamma + bs * mu) % a for bs, mu in zip(b_star, mu_vec)):
                continue
            term = fraction_phase(Fraction(-gamma * sum(mu_vec), a * r))
            term *= math.prod(mu_vec) * a ** n
            term *= math.sin(math.pi * gamma / r) ** (-sin_exp)
            total += term
    return total


def default_b_star(symbol: SeifertSymbol) -> list[int]:
    return [pow(b, -1, a) for a, b in symbol.pairs]


def test_symbol_validation_and_accessors():
    s = sym("0; 5/1, 5/1, 5/-2")
    assert s.g == 0 and s.n == 3
    assert s.pairs == ((5, 1), (5, 1), (5, -2))
    assert sym("2;").n == 0
    assert SeifertSymbol(1, ((1, 0),)).pairs == ((1, 0),)
    with pytest.raises(ValueError):
        SeifertSymbol(-1, ())
    with pytest.raises(ValueError):
        SeifertSymbol(0, ((4, 2),))
    with pytest.raises(ValueError):
        SeifertSymbol(0, ((0, 1),))


def test_symbol_text_round_trip():
    for text in ("0; 5/1, 5/1, 5/-2", "2;", "1; 7/-3", "0; 1/1"):
        s = sym(text)
        assert str(s) == text.replace(" ", " ").strip()
        assert sym(str(s)) == s
    with pytest.raises(ValueError):
        sym("not a symbol")
    with pytest.raises(ValueError):
        sym("0; 5")


def test_euler_number_examples():
    assert euler_number(sym("0; 5/1, 5/1, 5/-2")) == 0
    assert euler_number(sym("0; 1/1")) == -1
    assert euler_number(sym("2;")) == 0
    assert euler_number(sym("0; 4/1, 6/1")) == Fraction(-5, 12)


def test_same_manifold_moves():
    assert same_manifold(sym("0; 5/1, 5/-1"), sym("0; 5/1, 5/4, 1/-1"))
    assert same_manifold(
        sym("0; 5/1, 5/1, 5/-1, 5/-1"),
        sym("0; 5/4, 5/4, 5/1, 5/1, 1/-2"),
    )
    # Move equivalence is finer than homeomorphism: both symbols below
    # present S^2 x S^1 (two exceptional fibers, Euler number 0), so their
    # invariants agree, yet no sequence of the four listed moves relates
    # them and the canonical forms differ.
    assert not same_manifold(sym("0; 5/1, 5/-1"), sym("0; 5/2, 5/-2"))
    va = tv_seifert(sym("0; 5/1, 5/-1"), 5)
    vb = tv_seifert(sym("0; 5/2, 5/-2"), 5)
    assert abs(va - 1) < 1e-10 and abs(vb - 1) < 1e-10


def test_dedekind_sum_examples():
    assert dedekind_sum(1, 5) == Fraction(1, 5)
    assert dedekind_sum(0, 1) == 0
    assert dedekind_sum(7, 1) == 0
    for a in (5, 7, 12, 101):
        assert dedekind_sum(1, a) == Fraction((a - 1) * (a - 2), 12 * a)
        assert dedekind_sum(-1, a) == -dedekind_sum(1, a)
    with pytest.raises(ValueError):
        dedekind_sum(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)


def test_dedekind_reciprocity_exact():
    rng = random.Random(20260815)
    checked = 0
    while checked < 100:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(1, a)
        if math.gcd(a, b) != 1:
            continue
        lhs = dedekind_sum(b, a) + dedekind_sum(a, b)
        rhs = Fraction(-1, 4) + (
            Fraction(a, 12 * b) + Fraction(b, 12 * a) + Fraction(1, 12 * a * b)
        )
        assert lhs == rhs
        checked += 1


def test_dedekind_matches_cotangent_oracle():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        a = rng.randrange(2, 2000)
        b = rng.randrange(1, a)
        if math.gcd(a, b) != 1:
            continue
        assert abs(float(dedekind_sum(b, a)) - cotangent_sum(b, a)) < 1e-9
        checked += 1


def test_ratio_normalization_anchors():
    # Empty symbol: the ratio normalizes to 1 for every level.
    for r in (3, 4, 5, 6, 7):
        assert abs(hansen_ratio(sym("0;"), r) - 1) < 1e-10
    # (0;(1,1)) is the 3-sphere.
    for r in (3, 5, 7):
        expected = (2 / r) * math.sin(math.pi / r) ** 2
        assert abs(tv_seifert(sym("0; 1/1"), r) - expected) < 1e-10
    with pytest.raises(ValueError):
        hansen_ratio(sym("0;"), 2)


def test_ratio_matches_closed_form_example():
    got = tv_seifert(sym("0; 5/1, 5/1, 5/-1, 5/-1"), 5)
    expected = 25 / 16 / math.sin(math.pi / 5) ** 4
    assert abs(got - expected) < 1e-8 * expected
    assert abs(expected - 13.0902) < 5e-4


def test_vanishing_symbols():
    for text, a in (("0; 5/1, 5/1, 5/-2", 5), ("0; 7/1, 7/1, 7/1, 7/-3", 7)):
        for r in (a, 2 * a):
            assert abs(hansen_ratio(sym(text), r)) < 1e-9
        assert tv_seifert(sym(text), a) < 1e-15


def test_unit_criterion_examples():
    cert = check_unit_criterion(sym("0; 5/1, 5/1, 5/-1, 5/-1"))
    assert isinstance(cert, UnitCertificate)
    assert cert.b_star == 1 and cert.nu == (1, 1, -1, -1)
    assert check_unit_criterion(sym("0; 5/1, 5/1, 5/-2")) is None
    cert7 = check_unit_criterion(sym("0; 7/4, 7/4, 7/-4, 7/-4"))
    assert cert7.b_star == 2 and cert7.nu == (1, 1, -1, -1)
    # Certificates re-verify their congruences.
    for j, (a_j, b_j) in enumerate(sym("0; 7/4, 7/4, 7/-4, 7/-4").pairs):
        assert (cert7.b_star * b_j - cert7.nu[j]) % a_j == 0


def test_unit_criterion_hypothesis_violations():
    with pytest.raises(ValueError):
        check_unit_criterion(sym("0; 5/1, 7/-1"))
    with pytest.raises(ValueError):
        check_unit_criterion(sym("0; 5/1, 5/1"))
    with pytest.raises(ValueError):
        check_unit_criterion(sym("0; 2/1, 2/-1"))
    with pytest.raises(ValueError):
        check_unit_criterion(
            SeifertSymbol(0, ((5, 1),) * 5 + ((5, -1),) * 5), a=5
        )
    with pytest.raises(ValueError):
        check_unit_criterion(sym("0;"))


def test_closed_form_examples():
    s7 = sym("0; 7/1, 7/1, 7/-1, 7/-1")
    v1 = tv_closed_form(s7, 1)
    assert abs(v1 - 49 / 16 / math.sin(math.pi / 7) ** 4) < 1e-10
    v2 = tv_closed_form(s7, 2)
    assert abs(v2 - 49 / 16 / math.sin(2 * math.pi / 7) ** 4) < 1e-10
    for s in (1, 2, 3):
        assert tv_closed_form(sym("0; 5/1, 5/1, 5/-2"), s) == 0.0
    g1 = tv_closed_form(sym("1; 5/1, 5/-1"), 1)
    assert abs(g1 - 25 / 4 / math.sin(math.pi / 5) ** 4) < 1e-10
    assert abs(g1 - 52.36) < 5e-3


def test_closed_form_refined_keeps_sine_factor():
    s5 = sym("0; 5/1, 5/1, 5/-1, 5/-1")
    refined = tv_closed_form(s5, 2, refined=True)
    assert abs(refined - 25 / 16 / math.sin(2 * math.pi / 5) ** 4) < 1e-10
    full = tv_closed_form(s5, 2)
    assert abs(refined - full) < 1e-10  # g = 0: the two formulas coincide
    g1 = sym("1; 5/1, 5/-1")
    assert abs(
        tv_closed_form(g1, 2, refined=True) - tv_closed_form(g1, 2) / 4
    ) < 1e-10


def test_closed_form_validation():
    s5 = sym("0; 5/1, 5/1, 5/-1, 5/-1")
    with pytest.raises(ValueError):
        tv_closed_form(s5, 5)
    with pytest.raises(ValueError):
        tv_closed_form(s5, 1, refined=True)
    with pytest.raises(ValueError):
        tv_closed_form(sym("0; 5/2, 5/-1"), 1)


def test_closed_form_oracle_agreement_positive_n():
    # The closed form's hypotheses hold and the ratio oracle agrees for n >= 2.
    for a in (5, 7):
        for g in (0, 1):
            for n in (2, 4):
                pairs = ((a, 1),) * (n // 2) + ((a, -1),) * (n // 2)
                symbol = SeifertSymbol(g, pairs)
                oracle = tv_seifert(symbol, a)
                closed = tv_closed_form(symbol, 1)
                assert abs(oracle - closed) < 1e-8 * (1 + abs(closed))


def test_closed_form_defect_at_n_zero():
    # With no exceptional fibers the symbol (g;) is Sigma_g x S^1, whose
    # invariant is the squared Verlinde dimension: 1 for (0;) and (a-1)^2
    # for (1;).  The closed form must agree with the surgery-formula
    # oracle there.  Both sides are pinned so any change in either is
    # caught.
    for a in (5, 7):
        flat = tv_seifert(sym("0;"), a)
        assert abs(flat - 1) < 1e-10
        closed0 = tv_closed_form(sym("0;"), 1, a=a)
        assert abs(closed0 - 1) < 1e-10
        assert abs(flat - closed0) < 1e-10
        torus = tv_seifert(sym("1;"), a)
        assert abs(torus - (a - 1) ** 2) < 1e-8 * (a - 1) ** 2
        closed1 = tv_closed_form(sym("1;"), 1, a=a)
        assert abs(closed1 - (a - 1) ** 2) < 1e-10 * (a - 1) ** 2
        assert abs(torus - closed1) < 1e-8 * (a - 1) ** 2


def test_closed_form_n_zero_other_s_and_refined():
    # (0;) is S^2 x S^1: the closed form at every s coprime to 5 and the
    # refined form at even s match the float state sum on the shipped
    # triangulation.
    s2xs1 = load_asset("s2xs1")
    for s in (1, 2, 3, 4):
        closed = tv_closed_form(sym("0;"), s, a=5)
        assert closed == pytest.approx(tv(s2xs1, 5, s, method="float").value, rel=1e-9)
    for s in (2, 4):
        closed = tv_closed_form(sym("0;"), s, refined=True, a=5)
        assert closed == pytest.approx(
            tv_prime(s2xs1, 5, s, method="float").value, rel=1e-9
        )
    # (1;) is the 3-torus: the refined form is the SO(3) Verlinde
    # dimension squared, ((a-1)/2)^2.
    for a in (5, 7):
        for s in range(2, a, 2):
            closed = tv_closed_form(sym("1;"), s, refined=True, a=a)
            assert abs(closed - ((a - 1) / 2) ** 2) < 1e-10 * a**2


def test_level_route_examples():
    s7 = sym("0; 7/1, 7/1, 7/-1, 7/-1")
    assert [level_route(s7, r) for r in (7, 8, 14, 21)] == [
        "closed_form", "ratio", "out_of_scope", "out_of_scope"
    ]
    assert [level_route(sym("0; 5/1, 5/1, 5/-2"), r) for r in (5, 10, 11)] == [
        "vanishing", "vanishing", "ratio"
    ]
    # A symbol without pairs takes a = r.  Mixed cone orders, or a <= n,
    # have no closed form, so levels sharing a factor with a cone order
    # have no formula.
    assert level_route(sym("1;"), 6) == "closed_form"
    assert level_route(sym("0; 3/1, 3/-1, 5/1, 5/-1"), 15) == "out_of_scope"
    assert level_route(sym("0; 3/1, 3/1, 3/-2"), 3) == "out_of_scope"
    with pytest.raises(ValueError):
        level_route(s7, 2)


def _hypotheses_grid() -> list[SeifertSymbol]:
    """Uniform cone orders 2..9 with n from 1 to order + 1 and slope sums
    zero and nonzero, mixed cone orders, and symbols with no pairs."""
    symbols = [SeifertSymbol(g) for g in (0, 1, 2)]
    for order in range(2, 10):
        for n in range(1, order + 2):
            for slopes in (
                [1] * n,
                [(-1) ** j for j in range(n)],
                [1] * (n - 1) + [1 - n],
                [2] * (n - 1) + [2 - 2 * n],
            ):
                if all(math.gcd(order, b) == 1 for b in slopes):
                    symbols.append(SeifertSymbol(n % 2, tuple((order, b) for b in slopes)))
        symbols.append(SeifertSymbol(0, ((order, 1), (order + 1, -1))))
        symbols.append(SeifertSymbol(0, ((order, 1), (order, -1), (1, 0))))
    return symbols


def test_route_and_closed_form_agree_on_the_hypotheses():
    # The closed form applies at level a exactly where the route is the
    # closed form or the vanishing criterion, and it is 0.0 exactly on the
    # vanishing route.  An a that differs from the symbol's cone order
    # fails the hypotheses; at a = 2 both refuse the level.
    def outcome(fn):
        try:
            return fn()
        except ValueError:
            return None

    routes = set()
    for symbol in _hypotheses_grid():
        for a in range(2, 10):
            route = outcome(lambda: level_route(symbol, a))
            value = outcome(lambda: tv_closed_form(symbol, 1, a=a))
            routes.add(route)
            case = f"({symbol}) at a={a}: route {route}, closed form {value}"
            assert (value is not None) == (route in ("closed_form", "vanishing")), case
            if value is not None:
                assert (value == 0.0) == (route == "vanishing"), case
    assert routes == {None, "closed_form", "vanishing", "ratio", "out_of_scope"}


def test_tv_prime_routes():
    s5 = sym("0; 5/1, 5/1, 5/-1, 5/-1")
    assert abs(
        tv_prime_seifert(s5, 5, 2) - tv_closed_form(s5, 2, refined=True)
    ) < 1e-10
    g1 = sym("1; 5/1, 5/-1")
    assert abs(
        tv_prime_seifert(g1, 5, 2) - tv_closed_form(g1, 2) / 4
    ) < 1e-10
    assert tv_prime_seifert(sym("0; 5/1, 5/1, 5/-2"), 5, 2) == 0.0
    # Coprime level with s = r - 1: the ratio route divided by 2^(2g).
    vanishing = sym("0; 5/1, 5/1, 5/-2")
    assert abs(
        tv_prime_seifert(vanishing, 7, 6) - tv_seifert(vanishing, 7)
    ) < 1e-10
    assert abs(
        tv_prime_seifert(g1, 7, 6) - tv_seifert(g1, 7) / 4
    ) < 1e-10


def test_tv_prime_validation():
    s5 = sym("0; 5/1, 5/1, 5/-1, 5/-1")
    with pytest.raises(ValueError):
        tv_prime_seifert(s5, 4, 2)
    with pytest.raises(ValueError):
        tv_prime_seifert(s5, 5, 3)
    with pytest.raises(ValueError):
        tv_prime_seifert(s5, 15, 2)
    with pytest.raises(ValueError):
        tv_prime_seifert(s5, 11, 4)
    with pytest.raises(ValueError):
        tv_prime_seifert(sym("0; 4/1, 4/-1"), 5, 2)
    # Levels sharing a factor with a cone order, other than r = a and
    # the vanishing multiples of a, have no formula.
    with pytest.raises(ValueError):
        tv_prime_seifert(sym("0; 3/1, 3/-1, 5/1, 5/-1"), 15, 14)
    with pytest.raises(ValueError):
        tv_prime_seifert(sym("0; 9/1, 9/-1"), 3, 2)


def test_simplified_z_consistency():
    for text in (
        "0; 5/1, 5/1, 5/-1, 5/-1",
        "0; 5/1, 5/1, 5/-2",
        "1; 7/1, 7/-1",
        "0; 7/1, 7/1, 7/1, 7/-3",
    ):
        symbol = sym(text)
        a = symbol.pairs[0][0]
        for r in (a, 2 * a):
            full = _z_full(symbol, r, default_b_star(symbol))
            simple = z_simplified(symbol, r)
            assert abs(full - simple) < 1e-9 * (1 + abs(full))


def test_z_full_bit_identical_to_fraction_oracle():
    # The Gauss-row fiber sums reproduce the grouped Fraction sums
    # exactly, not within a tolerance, which pins the reduction of every
    # integer phase exponent mod a.  The levels r = a, 2a (q = 0, a row of
    # a sums) and the even cone orders (gcd(2q, a) = 2) build rows from
    # more than one entry.
    for text, r in ORACLE_CASES:
        symbol = sym(text)
        b_star = default_b_star(symbol)
        assert _z_full(symbol, r, b_star) == grouped_fraction_z_full(symbol, r, b_star), (text, r)
    # Shifted and negative representatives of b* give the same bits.
    symbol = sym(SHIFTED_TEXT)
    for r in range(3, 41):
        z = _z_full(symbol, r, SHIFTED_B_STAR)
        assert z == grouped_fraction_z_full(symbol, r, SHIFTED_B_STAR), r
        assert z == _z_full(symbol, r, default_b_star(symbol)), r


def test_z_full_matches_ungrouped_fraction_oracle():
    # The triple sum in its own order checks the regrouping itself.
    cases = [(sym(text), r, default_b_star(sym(text))) for text, r in ORACLE_CASES]
    cases += [(sym(SHIFTED_TEXT), r, SHIFTED_B_STAR) for r in range(3, 41)]
    for symbol, r, b_star in cases:
        z = _z_full(symbol, r, b_star)
        ref = fraction_z_full(symbol, r, b_star)
        assert abs(z - ref) <= Z_ORACLE_TOL * (1 + abs(ref)), (str(symbol), r, z, ref)


def test_move_invariance_of_ratio():
    pairs = [
        ("0; 5/1, 5/-1", "0; 5/1, 5/4, 1/-1"),
        ("0; 5/1, 5/1, 5/-1, 5/-1", "0; 5/4, 5/4, 5/1, 5/1, 1/-2"),
        ("1; 7/2, 7/-2", "1; 7/-2, 7/2, 1/0"),
    ]
    for ta, tb in pairs:
        a, b = sym(ta), sym(tb)
        assert same_manifold(a, b)
        for r in (5, 7):
            assert abs(tv_seifert(a, r) - tv_seifert(b, r)) < 1e-10 * (
                1 + tv_seifert(a, r)
            )


def test_inverse_shift_independence():
    symbol = sym("0; 5/2, 5/2, 5/-4")
    default = _z_full(symbol, 7, default_b_star(symbol))
    shifted = _z_full(
        symbol, 7, [pow(2, -1, 5) + 5, pow(2, -1, 5) + 10, pow(-4, -1, 5) + 5]
    )
    assert abs(default - shifted) < 1e-10 * (1 + abs(default))
