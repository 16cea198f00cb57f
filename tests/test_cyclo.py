"""Exact cyclotomic arithmetic against independent high-precision oracles."""

import math
import random
from fractions import Fraction
from itertools import islice

import mpmath
import pytest

from quantum3 import cyclo
from quantum3.complex3 import Coloring, color_range, load_asset
from quantum3.cyclo import (
    CycloNum,
    _height_bits,
    _rational_reconstruct,
    _residue_primes,
    _residues,
    _ResidueImage,
    _ring_modulus,
    _root_exponents,
    check_point,
    cyclotomic_poly,
    ev,
    evaluation_points,
    is_near_integer,
    quantum_factorial,
    quantum_int,
)
from quantum3.seifert import SeifertSymbol, hansen_ratio, level_route, tv_routed
from quantum3.statesum import tv, tv_prime

mpmath.mp.dps = 50

# Frozen from the standard tables; low degree first.
KNOWN_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
    14: (1, -1, 1, -1, 1, -1, 1),
    16: (1, 0, 0, 0, 0, 0, 0, 0, 1),
    18: (1, 0, 0, -1, 0, 0, 1),
}


def _sin_ratio(n: int, s: int, r: int) -> float:
    # Independent oracle: [n] evaluated at zeta = e^(i pi s/r).
    return float(mpmath.sin(mpmath.pi * s * n / r) / mpmath.sin(mpmath.pi * s / r))


def _coprime_s(r: int) -> list[int]:
    return [s for s in range(1, r) if math.gcd(s, r) == 1]


def test_cyclotomic_polynomials_match_tables():
    for n, coeffs in KNOWN_CYCLOTOMIC.items():
        assert cyclotomic_poly(n) == coeffs


def test_cyclotomic_product_identity():
    for n in (10, 12, 14, 16, 18):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = list(cyclotomic_poly(d))
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_cyclotomic_large_order_coefficient():
    # First order with a coefficient outside {-1, 0, 1}.
    assert cyclotomic_poly(105)[7] == -2


def test_quantum_int_matches_sine_oracle():
    for r in range(3, 10):
        for s in _coprime_s(r):
            for n in range(r):
                got = ev(quantum_int(n, r), s)
                assert abs(got.imag) < 1e-12
                assert got.real == pytest.approx(_sin_ratio(n, s, r), abs=1e-12)


def test_quantum_int_domain():
    with pytest.raises(ValueError):
        quantum_int(5, 5)
    with pytest.raises(ValueError):
        quantum_int(-1, 5)
    assert quantum_int(0, 4).is_zero()


def test_quantum_int_two_at_five_is_golden_ratio():
    x = quantum_int(2, 5)
    assert x == CycloNum.zeta_pow(5, 1) + CycloNum.zeta_pow(5, 9)
    assert ev(x, 1) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def test_quantum_factorial_recurrence():
    for r in (3, 4, 5, 7):
        assert quantum_factorial(0, r) == CycloNum.one(r)
        for n in range(1, r):
            assert quantum_factorial(n, r) == quantum_factorial(n - 1, r) * quantum_int(n, r)


def test_inverse_factorials_from_one_inverse_per_level():
    # Only [r-1]! is inverted; the rest come down by [n]!^-1 = [n+1]!^-1 [n+1].
    # Odd r covers the product of two cyclotomic fields.
    for r in range(3, 14):
        for n in range(r):
            assert cyclo._inv_quantum_factorial(n, r) * quantum_factorial(n, r) == 1, (n, r)
        for n in (-1, r):
            with pytest.raises(ValueError):
                cyclo._inv_quantum_factorial(n, r)


def test_quantum_integers_invertible_below_r():
    for r in (3, 4, 5, 6, 7):
        for n in range(1, r):
            x = quantum_int(n, r)
            assert not x.is_zero()
            assert x * x.inverse() == CycloNum.one(r)


def test_zero_divisors_at_odd_r_raise():
    # zeta^r + 1 vanishes at the order-2r roots and zeta^r - 1 at the
    # order-r roots; neither is zero in the ring.
    for r in (5, 7, 9):
        for x in (CycloNum.zeta_pow(r, r) + 1, CycloNum.zeta_pow(r, r) - 1):
            assert not x.is_zero()
            with pytest.raises(ZeroDivisionError, match="zero divisor"):
                x.inverse()
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            CycloNum.zero(r).inverse()


def test_inverse_skips_primes_dividing_the_denominator():
    # x = (1 + zeta) / p has no residues mod p, the first prime inverse
    # tries, so that prime is skipped and a later one certifies y.
    p, _ = next(_residue_primes(5))
    x = CycloNum(5, [1, 1], p)
    assert x * p == CycloNum(5, [1, 1])
    y = x.inverse()
    assert y * x == CycloNum.one(5)


def test_every_nonzero_element_inverts_at_even_r():
    # For even r the ring is the field Q[x]/Phi_2r.
    rng = random.Random(20261019)
    for r in (4, 6, 8, 10, 12):
        for _ in range(10):
            x = _random_element(rng, r)
            if not x.is_zero():
                assert x * x.inverse() == 1


def _shift_first(values, p: int):
    out = values.copy()
    out[:, 0] = (out[:, 0] + 1) % p
    return out


def _residues_of_double(values, p: int):
    return 2 * values % p


@pytest.mark.parametrize("corrupt", [_shift_first, _residues_of_double])
def test_corrupted_residues_raise_past_height_bound(corrupt, monkeypatch):
    # A shifted residue matches no element; the residues of 2x give the
    # exact inverse of 2x, which fails the check x * y == 1 at every prime.
    # Either way the height bound ends the search after a few primes.
    residues = cyclo._residues
    primes = []

    def corrupted(elements, p, omega):
        primes.append(p)
        return corrupt(residues(elements, p, omega), p)

    monkeypatch.setattr(cyclo, "_residues", corrupted)
    with pytest.raises(ArithmeticError, match="height bound"):
        quantum_factorial(4, 7).inverse()
    assert 0 < len(primes) < 40


def test_full_quantum_integer_vanishes():
    # [r] = zeta^(r-1) + zeta^(r-3) + ... + zeta^(1-r) is zero in the ring,
    # hence at every evaluation, both odd and even s.
    for r in (3, 4, 5, 6, 7):
        coeffs = [0] * (2 * r)
        for t in range(r):
            coeffs[(r - 1 - 2 * t) % (2 * r)] += 1
        assert CycloNum(r, coeffs).is_zero()


def test_even_s_evaluation_distinguishes_order_r_relation():
    # zeta^5 + 1 vanishes at order-10 roots but not at order-5 roots, so it
    # must not be the zero element when r = 5.
    x = CycloNum.zeta_pow(5, 5) + 1
    assert not x.is_zero()
    assert abs(ev(x, 1)) < 1e-12
    assert ev(x, 2) == pytest.approx(2.0, abs=1e-12)


def test_ev_rejects_non_coprime_s():
    with pytest.raises(ValueError):
        ev(quantum_int(2, 6), 3)


def _random_element(rng: random.Random, r: int) -> CycloNum:
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2 * r)]
    return CycloNum(r, coeffs)


def test_ring_laws_random_sweep():
    rng = random.Random(20260815)
    for r in (3, 5, 7, 4, 6):
        for _ in range(25):
            a = _random_element(rng, r)
            b = _random_element(rng, r)
            c = _random_element(rng, r)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == CycloNum.zero(r)
            if not b.is_zero():
                try:
                    assert (a / b) * b == a
                except ZeroDivisionError:
                    pass  # zero divisors exist for odd r; skip those draws


def test_ev_is_ring_homomorphism_every_coprime_s():
    rng = random.Random(815)
    for r in (3, 4, 5, 6, 7):
        for s in _coprime_s(r):
            for _ in range(10):
                a = _random_element(rng, r)
                b = _random_element(rng, r)
                lhs = ev(a * b, s)
                rhs = ev(a, s) * ev(b, s)
                assert lhs == pytest.approx(rhs, abs=1e-9)
                assert ev(a + b, s) == pytest.approx(ev(a, s) + ev(b, s), abs=1e-10)


def test_quantum_int_sign_change_between_s_and_r_minus_s():
    # ev_{r,s}[w] = (-1)^(w-1) ev_{r,r-s}[w]
    for r in (5, 7):
        for s in _coprime_s(r):
            for w in range(1, r):
                lhs = ev(quantum_int(w, r), s)
                rhs = (-1) ** (w - 1) * ev(quantum_int(w, r), r - s)
                assert lhs == pytest.approx(rhs, abs=1e-10)


def test_square_of_zeta_minus_inverse():
    for r in (3, 4, 5, 6, 7):
        w = CycloNum.zeta_pow(r, 1) - CycloNum.zeta_pow(r, 2 * r - 1)
        for s in _coprime_s(r):
            got = ev(w * w, s)
            assert got.imag == pytest.approx(0.0, abs=1e-12)
            assert got.real == pytest.approx(-4 * math.sin(math.pi * s / r) ** 2, abs=1e-12)


def test_coeffs_round_trip_and_hash():
    x = quantum_int(3, 7) * quantum_factorial(4, 7)
    y = CycloNum(7, x.coeffs)
    assert x == y
    assert hash(x) == hash(y)
    assert x.order == 14
    assert len(x.coeffs) == 14


def test_rational_detection():
    assert CycloNum.from_rational(5, Fraction(3, 7)).as_rational() == Fraction(3, 7)
    with pytest.raises(ValueError):
        quantum_int(2, 5).as_rational()


def test_power_matches_repeated_product():
    x = quantum_int(2, 7) - 1
    assert x ** 5 == x * x * x * x * x
    assert x ** 0 == CycloNum.one(7)
    assert x ** -2 == (x * x).inverse()


def test_is_near_integer():
    assert is_near_integer(2.0000000003, 1e-6) == 2
    assert is_near_integer(2.3, 1e-6) is None
    assert is_near_integer(1 + 1e-3j, 1e-6) is None
    assert is_near_integer(-0.9999999999, 1e-6) == -1
    assert is_near_integer(0.0, 1e-12) == 0
    assert is_near_integer(390457599.999999, 1e-6) == 390457600
    # The relative term is float rounding, not tol: large non-integers stay None.
    assert is_near_integer(1234567.3, 1e-6) is None
    assert is_near_integer(1e6 + 0.5, 1e-6) is None
    assert is_near_integer(390457599.9999 + 1e-3j, 1e-6) is None
    assert is_near_integer(1e12 + 1e-3, 1e-6) is None


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for n in range(2, math.isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(sieve[n * n :: n]))
    return [n for n in range(limit + 1) if sieve[n]]


def _certify(x: CycloNum) -> tuple[CycloNum, int]:
    """The element rebuilt from its residues, and how many primes it took."""
    image = _ResidueImage(x.r, _height_bits(x.r, [([x], 1)], 1))
    for used, (p, omega) in enumerate(_residue_primes(x.r), start=1):
        got = image.add(p, omega, _residues([x], p, omega)[0].tolist())
        if got is not None:
            return got, used
    raise AssertionError("primes ran out")


def test_residues_match_scalar_dot_products():
    # The reference is the plain dot product of the numerator with each
    # Vandermonde row, in Python integers; the vectorized form must agree
    # on numerators far past int64, of either sign, and on denominators.
    rng = random.Random(2026)
    for r in (3, 4, 7, 12):
        elements = [
            CycloNum(r, [rng.randint(-(1 << 100), 1 << 100) for _ in range(2 * r)], den)
            for den in (1, 3, 1 << 70, 1)
        ] + [quantum_factorial(r - 1, r), CycloNum.zero(r)]
        for p, omega in islice(_residue_primes(r), 2):
            vander = cyclo._root_powers(r, p, omega)
            want = [
                [sum(c * w for c, w in zip(x._num, row)) * pow(x._den, -1, p) % p for row in vander]
                for x in elements
            ]
            got = _residues(elements, p, omega)
            assert got.dtype.name == "int64" and got.tolist() == want


def test_residue_primes_and_roots():
    # Trial division by every prime up to sqrt(2^31) is the independent check.
    divisors = _small_primes(math.isqrt(1 << 31) + 1)
    for r in range(3, 41):
        assert len(_root_exponents(r)) == len(_ring_modulus(r)) - 1
        seen = []
        for p, omega in _residue_primes(r):
            assert p < 1 << 31 and p % (2 * r) == 1
            assert all(p % q for q in divisors)
            order = next(k for k in range(1, 2 * r + 1) if pow(omega, k, p) == 1)
            assert order == 2 * r
            seen.append(p)
            if len(seen) == 3:
                break
        assert seen == sorted(seen, reverse=True)


def test_residue_round_trip():
    rng = random.Random(20261018)
    for r in range(3, 13):
        # Denominators that divide a power of 2r, as those of the weights do.
        dens = (1, 2, r, 2 * r, (2 * r) ** 5)
        for _ in range(6):
            coeffs = [
                Fraction(rng.randint(-(10**9), 10**9), rng.choice(dens))
                for _ in range(2 * r)
            ]
            x = CycloNum(r, coeffs)
            got, _ = _certify(x)
            assert got == x and hash(got) == hash(x)
            assert got.evaluate(1) == x.evaluate(1)
        assert _certify(CycloNum.zero(r))[0] == CycloNum.zero(r)


def test_rational_reconstruction_bound():
    # sqrt(101/2) rounds down to 7: numerators and denominators up to 7
    # come back, anything past that bound is rejected.
    assert _rational_reconstruct(7, 101) == 7
    assert _rational_reconstruct(101 - 7, 101) == -7
    assert _rational_reconstruct(51, 101) == Fraction(1, 2)
    assert _rational_reconstruct(10, 101) is None
    # Modulo 2^31 - 1 the bound is 2^15 - 1; -2^15 = -1/2^16 is past it.
    p = 2147483647
    assert _rational_reconstruct(32767, p) == 32767
    assert _rational_reconstruct(-32767 % p, p) == -32767
    assert _rational_reconstruct(-32768 % p, p) is None


def test_wide_coefficients_take_several_primes():
    rng = random.Random(40)
    x = CycloNum(7, [rng.randint(-(1 << 40), 1 << 40) for _ in range(14)])
    got, used = _certify(x)
    assert got == x
    # One prime cannot hold 40-bit coefficients, two cannot reconstruct
    # them, and the certificate needs one prime past those that do.
    assert used > 2



def test_disagreeing_residues_raise_past_height_bound():
    # Residues that belong to no element of height 2^10 must fail once the
    # primes so far already determine every such element.
    rng = random.Random(5)
    image = _ResidueImage(5, 10.0)
    with pytest.raises(ArithmeticError, match="height bound"):
        for p, omega in _residue_primes(5):
            image.add(p, omega, [rng.randrange(p) for _ in _root_exponents(5)])


_SPHERE_SYMBOL = SeifertSymbol.parse("0; 1/1")
_LEVEL_ERROR = "level must satisfy r >= 3, got 2"
# Every entry point that takes a level, called at a level it rejects, with
# the error it must raise: r = 2 everywhere, and r = 4 for the even colors,
# which exist only at the levels with refined evaluation points (odd r).
_LEVEL_CALLS = {
    "Coloring": (lambda: Coloring(2, ()), _LEVEL_ERROR),
    "color_range": (lambda: color_range(2), _LEVEL_ERROR),
    "CycloNum": (lambda: CycloNum(2, (1,)), _LEVEL_ERROR),
    "check_point": (lambda: check_point(2, 1), _LEVEL_ERROR),
    "hansen_ratio": (lambda: hansen_ratio(_SPHERE_SYMBOL, 2), _LEVEL_ERROR),
    "level_route": (lambda: level_route(_SPHERE_SYMBOL, 2), _LEVEL_ERROR),
    "tv_routed": (lambda: tv_routed(_SPHERE_SYMBOL, 2), _LEVEL_ERROR),
    "tv": (lambda: tv(load_asset("s3_boundary4simplex"), 2, 1), _LEVEL_ERROR),
    "tv_prime": (lambda: tv_prime(load_asset("s3_boundary4simplex"), 2, 1), _LEVEL_ERROR),
    "color_range_even_only": (
        lambda: color_range(4, even_only=True),
        "even-color restriction requires odd r, got r=4",
    ),
}


@pytest.mark.parametrize("name", list(_LEVEL_CALLS))
def test_every_level_check_is_check_level(name):
    call, error = _LEVEL_CALLS[name]
    with pytest.raises(ValueError, match=error):
        call()


@pytest.mark.parametrize("refined", [False, True])
def test_evaluation_points_are_what_check_point_admits(refined):
    for r in range(3, 41):
        admitted = []
        for s in range(1, r):
            try:
                check_point(r, s, refined)
            except ValueError:
                continue
            admitted.append(s)
        assert evaluation_points(r, refined) == tuple(admitted), r
