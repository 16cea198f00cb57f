"""Seifert fibered spaces with orientable base and fibration: symbols and
their equivalence moves, exact Dedekind sums, the quantum-invariant ratio
formula, and closed forms / vanishing criteria for Turaev-Viro invariants
of uniform-cone-order symbols.

Conventions.  A symbol (g; (a_1,b_1), ..., (a_n,b_n)) has base genus
g >= 0 and coprime pairs with a_j >= 1; the rational Euler number is
E = -sum b_j/a_j.  The ratio returned by hansen_ratio is normalized by
the invariant of S^2 x S^1, so its squared modulus equals TV_{r,1}.
The empty symbol (0;) denotes S^2 x S^1 and (0;(1,1)) denotes S^3; both
conventions are pinned by anchor tests against the state sum.

Every phase exponent is an exact rational multiple of pi, reduced
mod 2 before exponentiation, since the raw exponents grow like r * a^2
and would otherwise lose precision.  The fiber sums keep it as an integer
numerator N over a r, reduced mod 2ar and read from a table of roots of
unity; the per-gamma Euler phase and the U_r phase stay Fractions.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class SeifertSymbol:
    """Symbol (g; (a_1,b_1), ..., (a_n,b_n)) of a Seifert fibered space."""

    g: int
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.g < 0:
            raise ValueError(f"base genus must be non-negative, got {self.g}")
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for a, b in pairs:
            if a < 1:
                raise ValueError(f"cone order must be >= 1, got {a}")
            if gcd(a, b) != 1:
                raise ValueError(f"pair ({a},{b}) is not coprime")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @classmethod
    def parse(cls, text: str) -> "SeifertSymbol":
        """Parse the text form "g; a1/b1, a2/b2, ..." (pairs optional)."""
        head, sep, tail = text.partition(";")
        try:
            g = int(head.strip())
        except ValueError as exc:
            raise ValueError(f"invalid genus in symbol {text!r}") from exc
        pairs = []
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = re.fullmatch(r"([+-]?\d+)\s*/\s*([+-]?\d+)", chunk)
            if not m:
                raise ValueError(f"invalid pair {chunk!r} in symbol {text!r}")
            pairs.append((int(m.group(1)), int(m.group(2))))
        return cls(g, tuple(pairs))

    def __str__(self) -> str:
        body = ", ".join(f"{a}/{b}" for a, b in self.pairs)
        return f"{self.g}; {body}" if body else f"{self.g};"


@dataclass(frozen=True)
class UnitCertificate:
    """Witness b* coprime to the uniform cone order a with
    b* b_j = nu_j (mod a) and nu_j in {+1, -1}."""

    b_star: int
    nu: tuple[int, ...]


@dataclass(frozen=True)
class Vanishing:
    """Marker result: no unit certificate exists, so the invariant is 0
    for every level divisible by the uniform cone order."""

    reason: str = "no unit certificate"


def euler_number(sym: SeifertSymbol) -> Fraction:
    """Rational Euler number -sum b_j/a_j of the fibration."""
    return -sum((Fraction(b, a) for a, b in sym.pairs), Fraction(0))


def _canonical(sym: SeifertSymbol):
    residues = tuple(sorted((a, b % a) for a, b in sym.pairs if a > 1))
    return (sym.g, residues, euler_number(sym))


def same_manifold(sym_a: SeifertSymbol, sym_b: SeifertSymbol) -> bool:
    """True iff the symbols are related by the symbol moves: reordering,
    inserting or deleting (1,0), transferring multiples of a_j between
    b_j and a (1,e) term, or negating every b_j at once (a change of
    orientation).  Canonical form: genus, sorted residues b_j mod a_j
    over the a_j > 1 pairs, and the exact Euler number."""
    negated = SeifertSymbol(sym_b.g, tuple((a, -b) for a, b in sym_b.pairs))
    return _canonical(sym_a) == _canonical(sym_b) or _canonical(sym_a) == _canonical(negated)


def dedekind_sum(b: int, a: int) -> Fraction:
    """Exact Dedekind sum s(b, a) via the reciprocity recursion.  The
    defining cotangent sum (4a)^{-1} sum_l cot(pi l/a) cot(pi l b/a) is
    kept as a floating-point oracle in the tests."""
    if a < 1:
        raise ValueError(f"modulus must be >= 1, got {a}")
    if gcd(a, b) != 1:
        raise ValueError(f"arguments must be coprime, got ({b},{a})")
    b %= a
    total = Fraction(0)
    sign = 1
    while b:
        total += sign * (Fraction(-1, 4) + Fraction(a * a + b * b + 1, 12 * a * b))
        a, b, sign = b, a % b, -sign
    return total


def _phase(frac: Fraction) -> complex:
    """e^{i pi frac} with the exact rational argument reduced mod 2."""
    return cmath.exp(1j * math.pi * float(frac % 2))


def _inverse_mod(b: int, a: int) -> int:
    return 0 if a == 1 else pow(b % a, -1, a)


def _fiber_sum(roots: list[complex], a: int, c: int, r: int, gamma: int) -> complex:
    """Sum over mu = +-1 and m mod a of mu e^{i pi N/(a r)}, where
    N = -(2rm+mu) gamma - 2r(rm^2+mu m) c and roots[k] = e^{i pi k/(a r)}."""
    fiber = 0j
    for mu in (1, -1):
        for m in range(a):
            n = -(2 * r * m + mu) * gamma - 2 * r * (r * m * m + mu * m) * c
            fiber += mu * roots[n % len(roots)]
    return fiber


def _z_full(sym: SeifertSymbol, r: int, b_star: list[int]) -> complex:
    """Z_r as the full sum over (gamma, mu vector, m vector); the mu/m
    sums are grouped per fiber, which is an exact regrouping of the
    triple sum.

    Fiber j's phases have integer numerators N over a r (see _fiber_sum
    with c = b*_j), reduced exactly mod 2ar.  The root table holds
    e^{i pi k/(ar)} as exponentiating the reduced Fraction would give it:
    int and Fraction true division both round correctly.  N mod 2ar
    depends on b*_j only mod a, so each fiber sum is computed once per
    (a, b*_j mod a) and gamma."""
    e_num = euler_number(sym)
    sin_exp = sym.n + 2 * sym.g - 2
    keys = [(a, bs % a) for (a, _), bs in zip(sym.pairs, b_star)]
    roots = {
        a: [cmath.exp(1j * math.pi * (k / (a * r))) for k in range(2 * a * r)]
        for a in {a for a, _ in keys}
    }
    total = 0j
    for gamma in range(1, r):
        term = _phase(Fraction(gamma * gamma, 2 * r) * e_num)
        term *= math.sin(math.pi * gamma / r) ** (-sin_exp)
        fibers = {(a, c): _fiber_sum(roots[a], a, c, r, gamma) for a, c in set(keys)}
        for key in keys:
            term *= fibers[key]
        total += term
    return total


def hansen_ratio(sym: SeifertSymbol, r: int, b_star: list[int] | None = None) -> complex:
    """The ratio tau_r(M) / tau_r(S^2 x S^1) = r^{g-1} U_r Z_r /
    (2^{n+g-1} sqrt(prod a_j)).

    b_star optionally overrides the per-fiber congruence inverses of b_j
    mod a_j; the result is independent of that choice.  Only the squared
    modulus is orientation-independent, so consumers wanting an invariant
    should use tv_seifert."""
    if r < 3:
        raise ValueError(f"level must satisfy r >= 3, got {r}")
    if b_star is None:
        b_star = [_inverse_mod(b, a) for a, b in sym.pairs]
    else:
        b_star = list(b_star)
        for (a, b), bs in zip(sym.pairs, b_star, strict=True):
            if (b * bs - 1) % a:
                raise ValueError(f"{bs} is not an inverse of {b} mod {a}")
    e_num = euler_number(sym)
    n, g = sym.n, sym.g
    z = _z_full(sym, r, b_star)
    sgn = (e_num > 0) - (e_num < 0)
    ded = sum((dedekind_sum(b, a) for a, b in sym.pairs), Fraction(0))
    u_arg = (Fraction(3, 2 * r) - Fraction(3, 4)) * sgn + (e_num + 12 * ded) / (2 * r)
    u = (-1) ** n * _phase(u_arg)
    return r ** (g - 1) * u * z / (2 ** (n + g - 1) * math.sqrt(math.prod(a for a, _ in sym.pairs)))


def tv_seifert(sym: SeifertSymbol, r: int) -> float:
    """TV_{r,1} of the Seifert space: the squared modulus of the ratio."""
    return abs(hansen_ratio(sym, r)) ** 2


def _uniform_a(sym: SeifertSymbol, a: int | None) -> int:
    if sym.pairs:
        found = sym.pairs[0][0]
        if any(aj != found for aj, _ in sym.pairs):
            raise ValueError("requires a uniform cone order")
        if a is not None and a != found:
            raise ValueError(f"explicit a={a} conflicts with symbol cone order {found}")
        a = found
    elif a is None:
        raise ValueError("symbol has no pairs; pass the cone order a explicitly")
    if a < 3:
        raise ValueError(f"requires cone order a >= 3, got {a}")
    return a


def check_unit_criterion(sym: SeifertSymbol, a: int | None = None) -> UnitCertificate | None:
    """Search for b* coprime to the uniform cone order a with
    b* b_j = +-1 (mod a) for every j; None when no such unit exists.
    Requires a > n >= 0 and sum b_j = 0."""
    a = _uniform_a(sym, a)
    if not a > sym.n:
        raise ValueError(f"requires a > n, got a={a}, n={sym.n}")
    if sum(b for _, b in sym.pairs) != 0:
        raise ValueError("requires sum of b_j to vanish")
    for bs in range(1, a):
        if gcd(bs, a) != 1:
            continue
        nu = []
        for _, b in sym.pairs:
            v = (bs * b) % a
            if v == 1:
                nu.append(1)
            elif v == a - 1:
                nu.append(-1)
            else:
                break
        else:
            return UnitCertificate(bs, tuple(nu))
    return None


def tv_closed_form(
    sym: SeifertSymbol, s: int, refined: bool = False, a: int | None = None
) -> float | Vanishing:
    """TV_{a,s} (or TV'_{a,s} when refined) of a uniform-cone-order
    symbol satisfying a > n >= 0 and sum b_j = 0.

    For n >= 1 this is the unit-certificate formula
    a^{n+2g-2} / 2^{2n+2g-4} / sin^{2n+4g-4}(pi b* s / a), with
    denominator exponent 2n+4g-4 in the refined case; Vanishing when no
    certificate exists (then the invariant is 0 for every level
    divisible by a).

    For n = 0 the symbol is Sigma_g x S^1 and the invariant is the square
    of the SU(2) Verlinde dimension
    V_g = (a/2)^{g-1} sum_{j=1}^{a-1} sin^{2-2g}(pi j s / a), which does
    not depend on s coprime to a; the refined form is V_g^2 / 4^g.  The
    cone order a must then be passed explicitly."""
    a = _uniform_a(sym, a)
    if gcd(s, a) != 1:
        raise ValueError(f"s={s} must be coprime to a={a}")
    if refined and (a % 2 == 0 or s % 2):
        raise ValueError("refined form requires odd a and even s")
    cert = check_unit_criterion(sym, a)
    if cert is None:
        return Vanishing()
    n, g = sym.n, sym.g
    if n == 0:
        # j s runs over the nonzero residues mod a; reducing it keeps the
        # sine argument small and the even power hides the sign change.
        verlinde = (a / 2) ** (g - 1) * math.fsum(
            math.sin(math.pi * (j * s % a) / a) ** (2 - 2 * g) for j in range(1, a)
        )
        return verlinde**2 / 4**g if refined else verlinde**2
    two_exp = 2 * n + 4 * g - 4 if refined else 2 * n + 2 * g - 4
    sin_pow = math.sin(math.pi * cert.b_star * s / a) ** (2 * n + 4 * g - 4)
    return a ** (n + 2 * g - 2) / 2 ** two_exp / sin_pow


def tv3_seifert(sym: SeifertSymbol) -> tuple[float, float]:
    """(TV_{3,1}, TV_{3,2}) = (2^{2g}, 2^{2g}) for symbols whose cone
    orders are all odd and whose Euler number vanishes."""
    if any(a % 2 == 0 for a, _ in sym.pairs):
        raise ValueError("requires all cone orders odd")
    if euler_number(sym) != 0:
        raise ValueError("requires zero Euler number")
    return (float(2 ** (2 * sym.g)), float(2 ** (2 * sym.g)))


def tv_prime_seifert(sym: SeifertSymbol, r: int, s: int) -> float:
    """TV'_{r,s} for symbols with all cone orders odd and zero Euler
    number, on the two computable routes:

    - r divisible by the uniform cone order a: the refined closed form at
      r = a, or 0 when the certificate does not exist (any multiple of a);
    - r coprime to every cone order and s = r -+ 1 (mod 2r): TV_{r,1} via
      the ratio formula divided by TV_{3,1} = 2^{2g}.

    Other levels are not covered by an implemented formula and raise."""
    if r < 3 or r % 2 == 0:
        raise ValueError(f"requires odd r >= 3, got {r}")
    if s % 2 or gcd(s, r) != 1:
        raise ValueError(f"requires even s coprime to r, got s={s}")
    if any(a % 2 == 0 for a, _ in sym.pairs):
        raise ValueError("requires all cone orders odd")
    if euler_number(sym) != 0:
        raise ValueError("requires zero Euler number")
    uniform = sym.pairs and all(a == sym.pairs[0][0] for a, _ in sym.pairs)
    if uniform and r % sym.pairs[0][0] == 0:
        a = sym.pairs[0][0]
        cert = check_unit_criterion(sym)
        if cert is None:
            return 0.0
        if r != a:
            raise ValueError(
                f"no implemented formula at r={r}: certificate exists and r is a proper multiple of a={a}"
            )
        value = tv_closed_form(sym, s, refined=True)
        assert not isinstance(value, Vanishing)
        return value
    if s % (2 * r) in (r - 1, r + 1):
        return tv_seifert(sym, r) / float(2 ** (2 * sym.g))
    raise ValueError(
        f"no implemented formula for s={s} at r={r}: the ratio route covers only s = r -+ 1 (mod 2r)"
    )
