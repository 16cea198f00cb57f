"""Seifert fibered spaces with orientable base and fibration: symbols and
their equivalence moves, exact Dedekind sums, the quantum-invariant ratio
formula, and the closed form of the Turaev-Viro invariants at level r = a
with its vanishing criterion.  level_route says which of these formulas
covers a level, and tv_routed evaluates it; the CLI and the Hempel
report take every Seifert value from there.

Each rule behind the route is decided in one function:
_closed_form_order holds the closed-form hypotheses (one cone order
a >= 3, n < a, sum b_j = 0); check_unit_criterion the exact vanishing
(without a unit certificate every level divisible by a gives 0); and
cyclo.check_point which (r, s, refined) are evaluation points.

Conventions.  A symbol (g; (a_1,b_1), ..., (a_n,b_n)) has base genus
g >= 0 and coprime pairs with a_j >= 1; the rational Euler number is
E = -sum b_j/a_j.  The ratio returned by hansen_ratio is normalized by
the invariant of S^2 x S^1, so its squared modulus equals TV_{r,1}.
The empty symbol (0;) denotes S^2 x S^1 and (0;(1,1)) denotes S^3; both
conventions are pinned by anchor tests against the state sum.

Every phase exponent is an exact rational multiple of pi, reduced
mod 2 before exponentiation, since the raw exponents grow like r * a^2
and would otherwise lose precision.  A fiber phase factors into an a-th
root of unity, whose integer exponent is reduced mod a and read from a
table, and a half-turn phase e^{+-i pi gamma/(a r)}; the gamma Euler
phase is a ratio of ints and the U_r phase a Fraction.

Cost.  The m sum of a fiber is a row entry H_q(t) of a quadratic Gauss
sum, with q = r b* mod a and t = gamma +- b* mod a (_fiber_sums).  A row
costs gcd(2q, a) sums of a terms and a products, at most 3a terms at a
level coprime to a, once per (a, q); it serves every level and both
symbols of a Hempel pair that share (a, q).  The r - 1 half-turn phases
are built once per (a, r).  A fiber then costs 2(r - 1) products for all
gamma.  The level-free constants of a symbol (Euler number, Dedekind
sums) are computed once; all three caches are small and bounded.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cyclo import check_level, check_point


@dataclass(frozen=True)
class SeifertSymbol:
    """Symbol (g; (a_1,b_1), ..., (a_n,b_n)) of a Seifert fibered space."""

    g: int
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        g = _integer(self.g, "base genus")
        if g < 0:
            raise ValueError(f"base genus must be non-negative, got {g}")
        pairs = tuple(
            (_integer(a, "cone order"), _integer(b, "pair entry b_j")) for a, b in self.pairs
        )
        object.__setattr__(self, "g", g)
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


def _integer(value, name: str) -> int:
    """value as an int through operator.index, so no float or string is
    coerced; a bool, or anything operator.index refuses, raises
    ValueError naming the value."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not the bool {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class UnitCertificate:
    """Witness b* coprime to the uniform cone order a with
    b* b_j = nu_j (mod a) and nu_j in {+1, -1}."""

    b_star: int
    nu: tuple[int, ...]


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
    kept as a floating-point oracle in cli._cotangent_sum, which the
    dedekind verify suite and the tests compare against."""
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


@functools.lru_cache(maxsize=64)
def _gauss_row(a: int, q: int) -> tuple[complex, ...]:
    """H_q(t) = sum over m mod a of omega^{-(m t + q m^2)} for t mod a,
    omega = e^{2 pi i/a}.  Shifting m by k gives
    H_q(t + 2qk) = omega^{q k^2 + t k} H_q(t), so the sums at
    t = 0..g-1, g = gcd(2q, a), give the row: g a + a terms, at most 3a
    where q is a unit mod a.  Every root is read from a table of the a-th
    roots of unity by an exponent reduced mod a.  A row depends on the
    level only through q = r c mod a, so it serves every level and both
    symbols of a Hempel pair that share (a, q)."""
    roots = [cmath.exp(1j * math.pi * (2 * k / a)) for k in range(a)]
    g = math.gcd(2 * q, a)
    row = [0j] * a
    for t in range(g):
        h = sum(roots[-(m * t + q * m * m) % a] for m in range(a))
        for k in range(a // g):
            row[(t + 2 * q * k) % a] = roots[(q * k * k + t * k) % a] * h
    return tuple(row)


@functools.lru_cache(maxsize=8)
def _half_turns(a: int, r: int) -> tuple[complex, ...]:
    """e^{i pi gamma/(a r)} for gamma = 1..r-1; its conjugate is the phase
    at -gamma.  A level's table serves every fiber of cone order a, in
    both symbols of a Hempel pair."""
    return tuple([cmath.exp(1j * math.pi * (gamma / (a * r))) for gamma in range(1, r)])


def _fiber_sums(a: int, c: int, r: int) -> list[complex]:
    """For gamma = 1..r-1 (entry gamma - 1), the sum over mu = +-1 and
    m mod a of mu e^{i pi N/(a r)} with
    N = -(2rm+mu) gamma - 2r(rm^2+mu m) c.  The phase splits as
    e^{-i pi mu gamma/(a r)} omega^{-(m (gamma + mu c) + q m^2)} with
    q = r c mod a, so the m sum is a Gauss row entry and
    F(gamma) = e^{-i pi gamma/(a r)} H_q(gamma + c) - e^{i pi gamma/(a r)} H_q(gamma - c),
    the row read mod a."""
    row = _gauss_row(a, r * c % a)
    return [
        p.conjugate() * row[(gamma + c) % a] - p * row[(gamma - c) % a]
        for gamma, p in enumerate(_half_turns(a, r), 1)
    ]


@functools.lru_cache(maxsize=8)
def _symbol_constants(sym: SeifertSymbol) -> tuple[Fraction, Fraction]:
    """The Euler number and the sum of the Dedekind sums s(b_j, a_j): the
    parts of the ratio that do not depend on the level."""
    ded = sum((dedekind_sum(b, a) for a, b in sym.pairs), Fraction(0))
    return euler_number(sym), ded


def _z_full(sym: SeifertSymbol, r: int, b_star: list[int]) -> complex:
    """Z_r as the full sum over (gamma, mu vector, m vector); the mu/m
    sums are grouped per fiber, which is an exact regrouping of the
    triple sum.

    Fiber j's phase numerators N over a r (see _fiber_sums with
    c = b*_j) become a Gauss row entry, read at integer exponents reduced
    mod a, times a half-turn phase; the gamma phases are gamma^2 E/(2r)
    mod 2 as ratios of ints.  The root tables and the gamma phases are
    what exponentiating the reduced Fractions would give: int and
    Fraction true division both round a rational correctly.  The fiber
    sums depend on b*_j only mod a, so those of each distinct
    (a, b*_j mod a) are computed once, for every gamma in one pass,
    before the gamma loop multiplies them in fiber order."""
    e_num = _symbol_constants(sym)[0]
    sin_exp = sym.n + 2 * sym.g - 2
    keys = [(a, bs % a) for (a, _), bs in zip(sym.pairs, b_star)]
    fibers = {(a, c): _fiber_sums(a, c, r) for a, c in set(keys)}
    e_den = 2 * r * e_num.denominator
    total = 0j
    for gamma in range(1, r):
        term = cmath.exp(1j * math.pi * (gamma * gamma * e_num.numerator % (2 * e_den) / e_den))
        term *= math.sin(math.pi * gamma / r) ** (-sin_exp)
        for key in keys:
            term *= fibers[key][gamma - 1]
        total += term
    return total


def _finite(sym: SeifertSymbol, r: int, compute):
    """compute(), a float or complex value of sym at level r.  A float
    step that overflows, or a value that is not finite (an overflow to
    inf, or inf times 0), raises ArithmeticError naming sym and r."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise ArithmeticError(f"the ratio formula for ({sym}) at r={r} overflows float")
    return value


def hansen_ratio(sym: SeifertSymbol, r: int) -> complex:
    """The ratio tau_r(M) / tau_r(S^2 x S^1) = r^{g-1} U_r Z_r /
    (2^{n+g-1} sqrt(prod a_j)).

    Z_r uses the congruence inverses b*_j of b_j mod a_j, and reads them
    only mod a_j (see _z_full).  Only the squared modulus is
    orientation-independent, so consumers wanting an invariant should
    use tv_seifert.

    errors: ArithmeticError when a float step overflows or the ratio is
    not finite (_finite), as with many fibers at a large level."""
    check_level(r)
    e_num, ded = _symbol_constants(sym)
    n, g = sym.n, sym.g
    sgn = (e_num > 0) - (e_num < 0)
    u_arg = (Fraction(3, 2 * r) - Fraction(3, 4)) * sgn + (e_num + 12 * ded) / (2 * r)
    u = (-1) ** n * _phase(u_arg)

    def ratio():
        z = _z_full(sym, r, [pow(b, -1, a) for a, b in sym.pairs])
        scale = 2 ** (n + g - 1) * math.sqrt(math.prod(a for a, _ in sym.pairs))
        return r ** (g - 1) * u * z / scale

    return _finite(sym, r, ratio)


def tv_seifert(sym: SeifertSymbol, r: int) -> float:
    """TV_{r,1} of the Seifert space: the squared modulus of the ratio.

    errors: ArithmeticError when the ratio or its square overflows float
    (_finite)."""
    return _finite(sym, r, lambda: abs(hansen_ratio(sym, r)) ** 2)


def _closed_form_order(sym: SeifertSymbol, a: int | None = None) -> int | None:
    """The cone order a when the closed-form hypotheses hold, else None.
    The hypotheses: the pairs and the given a (when not None) share one
    cone order a >= 3, n < a, and sum b_j = 0."""
    orders = {aj for aj, _ in sym.pairs} | ({a} if a is not None else set())
    if len(orders) != 1:
        return None
    (a,) = orders
    if a < 3 or sym.n >= a or sum(b for _, b in sym.pairs) != 0:
        return None
    return a


def check_unit_criterion(sym: SeifertSymbol, a: int | None = None) -> UnitCertificate | None:
    """Search for b* coprime to the cone order a with b* b_j = +-1 (mod a)
    for every j; None when no such unit exists, and then every invariant
    at a level divisible by a is 0.

    errors: ValueError unless the closed-form hypotheses hold: one cone
    order a >= 3, shared by the pairs and the given a (which a symbol with
    no pairs needs), n < a and sum b_j = 0."""
    order = _closed_form_order(sym, a)
    if order is None:
        raise ValueError(
            f"({sym}) with a={a} fails the closed-form hypotheses: one cone order "
            "a >= 3 (passed as a for a symbol with no pairs), n < a and sum b_j = 0"
        )
    for bs in range(1, order):
        if gcd(bs, order) != 1:
            continue
        nu = []
        for _, b in sym.pairs:
            v = (bs * b) % order
            if v == 1:
                nu.append(1)
            elif v == order - 1:
                nu.append(-1)
            else:
                break
        else:
            return UnitCertificate(bs, tuple(nu))
    return None


def tv_closed_form(
    sym: SeifertSymbol, s: int, refined: bool = False, a: int | None = None
) -> float:
    """TV_{a,s} (or TV'_{a,s} when refined) of a symbol that meets the
    closed-form hypotheses of check_unit_criterion (one cone order a >= 3,
    n < a, sum b_j = 0); a symbol with no pairs needs a.  The value is
    exactly 0.0 when no unit certificate exists.

    For n >= 1 this is the unit-certificate formula
    a^{n+2g-2} / 2^{2n+2g-4} / sin^{2n+4g-4}(pi b* s / a), with
    denominator exponent 2n+4g-4 in the refined case.

    For n = 0 the symbol is Sigma_g x S^1 and the invariant is the square
    of the SU(2) Verlinde dimension
    V_g = (a/2)^{g-1} sum_{j=1}^{a-1} sin^{2-2g}(pi j s / a), which does
    not depend on s coprime to a; the refined form is V_g^2 / 4^g.

    errors: ValueError when the hypotheses fail or (a, s, refined) is not
    an evaluation point (cyclo.check_point)."""
    cert = check_unit_criterion(sym, a)
    a = _closed_form_order(sym, a)
    check_point(a, s, refined)
    if cert is None:
        return 0.0
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


def level_route(sym: SeifertSymbol, r: int) -> str:
    """Which formula gives the invariants of the symbol at level r.

    - "vanishing": a divides r and no unit certificate exists, so every
      value is 0 (a the closed-form cone order, see check_unit_criterion;
      a symbol with no pairs takes a = r);
    - "closed_form": r = a and a certificate exists;
    - "ratio": r is coprime to every cone order (hansen_ratio);
    - "out_of_scope": no implemented formula, such as a proper multiple
      of a with a certificate, or a level sharing a factor with a cone
      order."""
    check_level(r)
    a = _closed_form_order(sym, None if sym.pairs else r)
    if a is not None and r % a == 0:
        if check_unit_criterion(sym, a) is None:
            return "vanishing"
        return "closed_form" if r == a else "out_of_scope"
    if all(gcd(r, a) == 1 for a, _ in sym.pairs):
        return "ratio"
    return "out_of_scope"


def tv_routed(
    sym: SeifertSymbol, r: int, s: int = 1, refined: bool = False
) -> tuple[float, str]:
    """TV_{r,s} (TV'_{r,s} when refined) by the formula level_route picks,
    with the route's name.  The vanishing route gives the exact 0.0.

    The ratio gives s = +-1 (mod 2r) only; refined, it gives
    TV'_{r,s} = TV_{r,1} / TV_{3,1} with TV_{3,1} = 2^{2g} at
    s = r -+ 1 (mod 2r), for odd cone orders and zero Euler number.

    errors: ValueError when (r, s, refined) is not an evaluation point
    (cyclo.check_point) or no implemented formula covers (r, s)."""
    check_point(r, s, refined)
    route = level_route(sym, r)
    return _tv_on_route(sym, r, s, refined, route), route


def _tv_on_route(sym: SeifertSymbol, r: int, s: int, refined: bool, route: str) -> float:
    """The value of tv_routed, given the route level_route(sym, r) and an
    evaluation point (r, s, refined) that passed check_point."""
    if route == "vanishing":
        return 0.0
    if route == "closed_form":
        return tv_closed_form(sym, s, refined=refined, a=r)
    if route == "out_of_scope":
        raise ValueError(
            f"no implemented formula for ({sym}) at r={r}: the closed form covers "
            "r = a, the vanishing criterion multiples of a, and the ratio levels "
            "coprime to every cone order"
        )
    if not refined and s % (2 * r) in (1, 2 * r - 1):
        return tv_seifert(sym, r)
    if refined and s % (2 * r) in (r - 1, r + 1):
        if any(a % 2 == 0 for a, _ in sym.pairs):
            raise ValueError("refined ratio route requires all cone orders odd")
        if euler_number(sym) != 0:
            raise ValueError("refined ratio route requires zero Euler number")
        return tv_seifert(sym, r) / float(2 ** (2 * sym.g))
    raise ValueError(
        f"no implemented formula for s={s} at r={r}: the ratio route covers only "
        "s = +-1 (mod 2r), refined s = r -+ 1"
    )


def tv_prime_seifert(sym: SeifertSymbol, r: int, s: int) -> float:
    """TV'_{r,s} by the route of tv_routed: the refined closed form at
    r = a, 0 at vanishing levels, and TV_{r,1} / 2^{2g} at levels coprime
    to every cone order with s = r -+ 1 (mod 2r).  Other (r, s) raise."""
    return tv_routed(sym, r, s, refined=True)[0]
