"""Exact arithmetic in the coefficient ring of the level-r quantum theories.

The abstract root of unity zeta stands for q^(1/2).  For even r every
evaluation zeta -> e^(i pi s/r) with gcd(s, r) = 1 lands on a primitive
2r-th root of unity, so the ring of coefficients is Q[x]/Phi_2r(x).  For
odd r the even-s evaluations land on primitive r-th roots instead, so the
ring tracks both relations at once: elements are reduced modulo
M_r = Phi_r * Phi_2r, which is CRT-isomorphic to the pair of cyclotomic
fields.  Every evaluation allowed by gcd(s, r) = 1 is then a genuine ring
homomorphism to the complex numbers, and equalities certified here hold
simultaneously at every admissible s.

For a prime p = 1 (mod 2r), M_r splits over F_p into deg M_r distinct
linear factors, so an element is also determined by its residues at
those roots.  _residues maps elements there; _ResidueImage maps the
residues back by a Vandermonde solve, CRT over several primes and
rational reconstruction, to the same canonical form.  The same maps give
CycloNum.inverse: it inverts the residues, maps them back, and returns
the result y only after the exact check y * x == 1, which certifies it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den must be monic; exact division over the integers.
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            quot[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_poly(d)))
            if any(rem[1:]) or rem[0] != 0:
                raise AssertionError(f"cyclotomic recursion left a remainder at n={n}")
    return tuple(num)


@lru_cache(maxsize=None)
def _ring_modulus(r: int) -> tuple[int, ...]:
    # Odd r keeps both the order-2r and order-r relations alive; see module docstring.
    check_level(r)
    if r % 2:
        return tuple(_poly_mul(list(cyclotomic_poly(r)), list(cyclotomic_poly(2 * r))))
    return cyclotomic_poly(2 * r)


def _reduce_mod(coeffs: list[int], modulus: tuple[int, ...]) -> list[int]:
    deg = len(modulus) - 1
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            coeffs[k] = 0
            for j in range(deg):
                coeffs[k - deg + j] -= c * modulus[j]
    del coeffs[deg:]
    while len(coeffs) < deg:
        coeffs.append(0)
    return coeffs


class CycloNum:
    """An exact element of the coefficient ring for level r.

    Stored as an integer coefficient vector over the canonical power basis
    together with one positive common denominator, fully reduced.  Values
    are immutable and hashable; equality is equality of canonical forms,
    hence equality under every evaluation ev(., s) with gcd(s, r) = 1.
    """

    __slots__ = ("_r", "_num", "_den")

    def __init__(self, r: int, coeffs, den: int = 1):
        """Build the element sum coeffs[k] * zeta^k / den; exponents fold mod 2r."""
        modulus = _ring_modulus(r)
        folded = [0] * (2 * r)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        fracs = [Fraction(c) for c in coeffs]
        common = math.lcm(1, *(f.denominator for f in fracs))
        for k, f in enumerate(fracs):
            folded[k % (2 * r)] += int(f * common)
        num = _reduce_mod(folded, modulus)
        self._r = r
        self._num, self._den = _normalize(num, common * den)

    @classmethod
    def _raw(cls, r: int, num: list[int], den: int) -> CycloNum:
        self = object.__new__(cls)
        self._r = r
        self._num, self._den = _normalize(num, den)
        return self

    @classmethod
    def zero(cls, r: int) -> CycloNum:
        return cls(r, ())

    @classmethod
    def one(cls, r: int) -> CycloNum:
        return cls(r, (1,))

    @classmethod
    def from_rational(cls, r: int, value) -> CycloNum:
        return cls(r, (value,))

    @classmethod
    def zeta_pow(cls, r: int, k: int) -> CycloNum:
        """The basis monomial zeta^k, any integer k (folded mod 2r)."""
        e = k % (2 * r)
        return cls(r, [0] * e + [1])

    @property
    def r(self) -> int:
        return self._r

    @property
    def order(self) -> int:
        return 2 * self._r

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Canonical coefficient vector, padded to length 2r."""
        out = [Fraction(c, self._den) for c in self._num]
        out += [Fraction(0)] * (2 * self._r - len(out))
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    def _check_compatible(self, other: CycloNum) -> None:
        if self._r != other._r:
            raise ValueError(f"mixed levels {self._r} and {other._r}")

    def __add__(self, other):
        other = _coerce(other, self._r)
        if other is NotImplemented:
            return NotImplemented
        self._check_compatible(other)
        g = math.gcd(self._den, other._den)
        la, lb = other._den // g, self._den // g
        num = [a * la + b * lb for a, b in zip(self._num, other._num)]
        return CycloNum._raw(self._r, num, self._den * la)

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        return CycloNum._raw(self._r, [-a for a in self._num], self._den)

    def __sub__(self, other):
        other = _coerce(other, self._r)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = _coerce(other, self._r)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = _coerce(other, self._r)
        if other is NotImplemented:
            return NotImplemented
        self._check_compatible(other)
        num = _reduce_mod(_poly_mul(self._num, other._num), _ring_modulus(self._r))
        return CycloNum._raw(self._r, num, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        """Multiplicative inverse; raises ZeroDivisionError if none exists.

        The residues of x are inverted and mapped back by _ResidueImage, and
        a candidate y is returned only when y * x == 1 holds exactly."""
        r = self._r
        if self.is_zero():
            raise ZeroDivisionError("division by zero CycloNum")
        # Odd r: the ring is Q[x]/Phi_r times Q[x]/Phi_2r, two fields.
        if r % 2 and any(not any(_reduce_mod(self._num, cyclotomic_poly(n))) for n in (r, 2 * r)):
            raise ZeroDivisionError(f"{self!r} is a zero divisor")
        # Cramer and Hadamard on the matrix of multiplication by num bound
        # the height of den / num by den times the product of column norms.
        modulus = _ring_modulus(r)
        column, bits = list(self._num), math.log2(self._den) + 1
        for _ in range(len(modulus) - 1):
            bits += math.log2(sum(c * c for c in column)) / 2
            column = _reduce_mod([0] + column, modulus)
        image = _ResidueImage(r, bits)
        for p, omega in _residue_primes(r):
            if self._den % p == 0:
                continue
            values = _residues([self], p, omega)[0].tolist()
            if 0 in values:
                continue
            candidate = image.add(p, omega, [pow(v, -1, p) for v in values])
            if candidate is not None and candidate * self == 1:
                return candidate
        raise ArithmeticError(f"no prime below 2^31 certified the inverse of {self!r}")

    def __truediv__(self, other):
        other = _coerce(other, self._r)
        if other is NotImplemented:
            return NotImplemented
        self._check_compatible(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other, self._r)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> CycloNum:
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        out = CycloNum.one(self._r)
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(self._r, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return (self._r, self._num, self._den) == (other._r, other._num, other._den)

    def __hash__(self) -> int:
        return hash((self._r, self._num, self._den))

    def evaluate(self, s: int) -> complex:
        """Numerical value with zeta = e^(i pi s/r); (r, s) must pass check_point."""
        check_point(self._r, s)
        total = 0j
        for k, c in enumerate(self._num):
            if c:
                angle = math.pi * ((s * k) % (2 * self._r)) / self._r
                total += c * complex(math.cos(angle), math.sin(angle))
        return total / self._den

    def __repr__(self) -> str:
        terms = [f"{Fraction(c, self._den)}*z^{k}" for k, c in enumerate(self._num) if c]
        body = " + ".join(terms) if terms else "0"
        return f"CycloNum(r={self._r}: {body})"


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        num = [-a for a in num]
        den = -den
    g = den
    for a in num:
        g = math.gcd(g, a)
        if g == 1:
            break
    if g > 1:
        num = [a // g for a in num]
        den //= g
    if not any(num):
        den = 1
    return tuple(num), den


def _coerce(value, r: int):
    if isinstance(value, CycloNum):
        return value
    if isinstance(value, (int, Fraction)):
        return CycloNum.from_rational(r, value)
    return NotImplemented


@lru_cache(maxsize=None)
def quantum_int(n: int, r: int) -> CycloNum:
    """The quantum integer [n] = zeta^(n-1) + zeta^(n-3) + ... + zeta^(1-n)."""
    if not 0 <= n <= r - 1:
        raise ValueError(f"quantum_int requires 0 <= n <= r-1, got n={n}, r={r}")
    coeffs = [0] * (2 * r)
    for t in range(n):
        coeffs[(n - 1 - 2 * t) % (2 * r)] += 1
    return CycloNum(r, coeffs)


@lru_cache(maxsize=None)
def quantum_factorial(n: int, r: int) -> CycloNum:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if not 0 <= n <= r - 1:
        raise ValueError(f"quantum_factorial requires 0 <= n <= r-1, got n={n}, r={r}")
    if n == 0:
        return CycloNum.one(r)
    return quantum_factorial(n - 1, r) * quantum_int(n, r)


@lru_cache(maxsize=None)
def _inv_quantum_factorial(n: int, r: int) -> CycloNum:
    """[n]!^-1 for 0 <= n <= r-1.  One certified CycloNum.inverse per
    level, of [r-1]!; the rest follow downward by exact products,
    [n]!^-1 = [n+1]!^-1 [n+1]."""
    if not 0 <= n <= r - 1:
        raise ValueError(f"_inv_quantum_factorial requires 0 <= n <= r-1, got n={n}, r={r}")
    if n == r - 1:
        return quantum_factorial(n, r).inverse()
    return _inv_quantum_factorial(n + 1, r) * quantum_int(n + 1, r)


# Residue primes stay below 2^31, so the product of two residues fits int64.
_RESIDUE_PRIME_LIMIT = 1 << 31


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751 (bases 2, 3, 5, 7)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, k = n - 1, 0
    while d % 2 == 0:
        d //= 2
        k += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _residue_primes(r: int):
    """Primes p = 1 (mod 2r) below 2^31, largest first, each with a
    primitive 2r-th root of unity omega mod p, as pairs (p, omega).

    M_r splits into distinct linear factors mod such a p, with roots
    omega^s for s in _root_exponents(r)."""
    n = 2 * r
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    p = _RESIDUE_PRIME_LIMIT - 1 - (_RESIDUE_PRIME_LIMIT - 2) % n
    while p > n:
        if _is_prime(p):
            for g in range(2, p):
                omega = pow(g, (p - 1) // n, p)
                if all(pow(omega, n // q, p) != 1 for q in factors):
                    yield p, omega
                    break
        p -= n


@lru_cache(maxsize=None)
def _root_exponents(r: int) -> tuple[int, ...]:
    """The exponents s, 1 <= s < 2r with gcd(s, r) = 1: zeta -> omega^s are
    the deg M_r roots of the ring (order 2r for odd s, order r for even s)."""
    return tuple(s for s in range(1, 2 * r) if math.gcd(s, r) == 1)


@lru_cache(maxsize=None)
def _root_powers(r: int, p: int, omega: int) -> tuple[tuple[int, ...], ...]:
    """Vandermonde matrix mod p: row k holds (omega^s_k)^j for j < deg M_r,
    s_k the k-th of _root_exponents(r)."""
    deg = len(_ring_modulus(r)) - 1
    rows = []
    for s in _root_exponents(r):
        root = pow(omega, s, p)
        row = [1]
        for _ in range(deg - 1):
            row.append(row[-1] * root % p)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _interpolation_matrix(r: int, p: int, omega: int) -> tuple[tuple[int, ...], ...]:
    """Inverse mod p of _root_powers(r, p, omega), by Gauss-Jordan: it maps
    the residues at the roots to the coefficients mod p."""
    vander = _root_powers(r, p, omega)
    deg = len(vander)
    aug = [list(row) + [int(i == k) for i in range(deg)] for k, row in enumerate(vander)]
    for col in range(deg):
        pivot = next(k for k in range(col, deg) if aug[k][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [a * inv % p for a in aug[col]]
        for k in range(deg):
            if k != col and aug[k][col]:
                f = aug[k][col]
                aug[k] = [(a - f * b) % p for a, b in zip(aug[k], aug[col])]
    return tuple(tuple(row[deg:]) for row in aug)


def _residues(elements, p: int, omega: int):
    """The images in F_p of a non-empty list of elements of one level
    under zeta -> omega^s, as an int64 array with one row per element and
    one column per s of _root_exponents(r) in order; raises
    ArithmeticError when p divides the denominator of an element.

    Numerators are reduced mod p < 2^31 and split into 16-bit halves, so
    every product with a Vandermonde entry is below 2^47 and no dot
    product of deg M_r < 2^16 of them passes int64."""
    import numpy as np

    invs = []
    for x in elements:
        if x._den % p == 0:
            raise ArithmeticError(f"denominator of {x!r} vanishes mod {p}")
        invs.append(pow(x._den, -1, p))
    vander_t = np.array(_root_powers(elements[0]._r, p, omega), dtype=np.int64).T
    nums = np.array([[c % p for c in x._num] for x in elements], dtype=np.int64)
    high = (nums >> 16) @ vander_t % p
    low = (nums & 0xFFFF) @ vander_t % p
    out = ((high << 16) + low) % p
    out *= np.array(invs, dtype=np.int64)[:, None]
    out %= p
    return out


def _rational_reconstruct(u: int, m: int) -> Fraction | None:
    """The fraction a/b = u (mod m) with |a| and b at most sqrt(m/2) and b
    prime to m, found by the half extended Euclidean algorithm; None when
    no such fraction exists (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 5.10)."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, u % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1 or math.gcd(t1, m) != 1:
        return None
    return Fraction(r1, t1)


def _height_bits(r: int, groups, terms: int) -> float:
    """log2 of a bound on |a| and b for every coefficient a/b of a sum of
    at most terms products, each product taking n factors from weights
    for every pair (weights, n) in groups.

    The common denominator divides the product over groups of the lcm of
    their denominators to the n; call it L.  L times the sum has integer
    coefficients, its value at any complex root of M_r is at most L times
    terms times the product over groups of the largest coefficient
    1-norm over denominator to the n, and the inverse of the Vandermonde
    matrix of the roots, of row-sum norm at most the sum over roots x_k
    of the product over j != k of 2 / |x_k - x_j|, maps those values to
    the coefficients.  One bit is added for float rounding."""
    den_bits = 0.0
    value_bits = math.log2(terms)
    for weights, n in groups:
        lcm = 1
        for w in weights:
            lcm = lcm * w._den // math.gcd(lcm, w._den)
        den_bits += n * math.log2(lcm)
        value_bits += n * max(
            math.log2(max(1, sum(map(abs, w._num)))) - math.log2(w._den) for w in weights
        )
    angles = [math.pi * s / r for s in _root_exponents(r)]
    inverse_norm = sum(
        math.prod(1 / abs(math.sin((a - b) / 2)) for b in angles if b != a) for a in angles
    )
    return max(den_bits, math.log2(inverse_norm) + den_bits + value_bits) + 1


class _ResidueImage:
    """One ring element at level r, known from its residues modulo a
    growing set of primes from _residue_primes.

    The coefficients are combined across primes by CRT, and every prime
    is folded in.  The element is certified when the rational
    reconstruction from the earlier primes agrees with the newest prime
    on every coefficient.  height_bits bounds log2 of every numerator
    and of the denominator (see _height_bits and CycloNum.inverse): once
    the modulus reaches 2^(2 height_bits + 2) the reconstruction is
    exact, so a disagreement after that, or a further call after that
    reconstruction was returned, means the residues are wrong, and
    raises ArithmeticError."""

    def __init__(self, r: int, height_bits: float) -> None:
        self._r = r
        self._limit_bits = 2 * height_bits + 2
        self._modulus = 1
        self._coeffs = [0] * (len(_ring_modulus(r)) - 1)
        self._exact = False

    def add(self, p: int, omega: int, values: list[int]) -> CycloNum | None:
        """Fold in the residues at omega^s mod p, s over _root_exponents(r)
        in order.  Returns the certified element, or None while the
        earlier primes do not yet determine it."""
        if self._exact:
            raise ArithmeticError("a reconstruction past its height bound was rejected")
        coeffs = [
            sum(a * v for a, v in zip(row, values)) % p
            for row in _interpolation_matrix(self._r, p, omega)
        ]
        candidate = self._reconstruct() if self._modulus > 1 else None
        agrees = candidate is not None and all(
            f.denominator % p != 0 and (f.numerator - f.denominator * c) % p == 0
            for f, c in zip(candidate, coeffs)
        )
        self._exact = self._modulus.bit_length() > self._limit_bits
        if self._exact and not agrees:
            raise ArithmeticError(
                f"residues mod {p} disagree with a reconstruction past its height bound"
            )
        m = self._modulus
        m_inv = pow(m, -1, p)
        self._coeffs = [u + m * ((c - u) * m_inv % p) for u, c in zip(self._coeffs, coeffs)]
        self._modulus = m * p
        return CycloNum(self._r, candidate) if agrees else None

    def _reconstruct(self) -> list[Fraction] | None:
        out = []
        for u in self._coeffs:
            f = _rational_reconstruct(u, self._modulus)
            if f is None:
                return None
            out.append(f)
        return out


def check_level(r: int) -> None:
    """Raise ValueError unless r >= 3, the levels of the quantum theories."""
    if r < 3:
        raise ValueError(f"level must satisfy r >= 3, got {r}")


def _point_fault(r: int, s: int, refined: bool) -> str | None:
    """Why (r, s) is no evaluation point at a level r >= 3, or None if it is."""
    if math.gcd(s, r) != 1:
        return f"s={s} must be coprime to r={r}"
    if refined and (r % 2 == 0 or s % 2):
        return f"refined invariant requires odd r and even s, got r={r}, s={s}"
    return None


def check_point(r: int, s: int, refined: bool = False) -> None:
    """Raise ValueError unless (r, s) is an evaluation point of the level-r
    invariants: r >= 3 (check_level) and gcd(s, r) = 1, and for the
    refined invariant also odd r and even s (_point_fault)."""
    check_level(r)
    if fault := _point_fault(r, s, refined):
        raise ValueError(fault)


def evaluation_points(r: int, refined: bool = False) -> tuple[int, ...]:
    """The s in 1..r-1 that check_point admits; every point is congruent
    mod 2r to one of them or to its conjugate 2r - s.  Empty only for the
    refined invariant at even r."""
    check_level(r)
    return tuple(s for s in range(1, r) if _point_fault(r, s, refined) is None)


def ev(x: CycloNum, s: int) -> complex:
    """Evaluate x at zeta = e^(i pi s/r); a ring homomorphism for gcd(s, r) = 1."""
    return x.evaluate(s)


def is_near_integer(z: complex, tol: float) -> int | None:
    """The nearest integer when z sits within tol + 1e-12 |z| of one, else
    None.  The relative term covers float rounding in large values (the
    Hempel ratio rows of 1; 5/1, 5/-1 stay within 5.5e-14 relative up to
    r = 250) without letting tol scale with |z|; once the bound reaches 1/2
    no integer can be told apart, so the answer is None, as it is for a z
    that is not finite."""
    z = complex(z)
    if not cmath.isfinite(z):
        return None
    bound = tol + 1e-12 * abs(z)
    if bound >= 0.5 or abs(z.imag) >= bound:
        return None
    n = round(z.real)
    if abs(z - n) < bound:
        return int(n)
    return None
