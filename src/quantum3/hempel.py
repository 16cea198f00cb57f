"""Periodic mapping classes, their iterates, and distinguishability reports.

A Seifert symbol with rational Euler number zero presents the mapping
torus of a periodic mapping class of a closed orientable surface.  The
class has order d = lcm(a_1, ..., a_n), and the surface is recovered
from the multiplicity-d orbifold cover of the base: its Euler
characteristic is d times the orbifold Euler characteristic
2 - 2g - sum_j (1 - 1/a_j), which gives

    genus(S) = 1 + (g - 1) d + sum_j (1 - 1/a_j) d / 2.

The k-th iterate of the class (gcd(k, d) = 1) has mapping torus with
symbol (g; (a_j, b_j k*)) where k k* == 1 (mod d); k* is normalized to
the least positive inverse.  Two iterates give homeomorphic tori exactly
when k == +-1 (mod d), so a pair (f, f^k) is "trivial" in that case.

report() compares the invariants of the two tori level by level:

- r divisible by the uniform cone order a, unit criterion fails: every
  value vanishes, for both the plain and refined invariants;
- r equal to the uniform a, unit criterion holds: closed-form values for
  every s coprime to a (refined where defined);
- r a proper multiple of a with a certificate: no implemented formula,
  marked out of scope rather than approximated;
- r coprime to d: the surgery-formula ratio gives the s = 1 value, which
  is an integer for mapping tori at levels coprime to the order, so the
  rows carry near-integer flags;
- anything else: marked out of scope.

Rows are sorted by (r, s, refined) and serialized to CSV with the header
r,s,refined,value_A,value_B,equal,int_A,int_B,status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .seifert import (
    SeifertSymbol,
    Vanishing,
    check_unit_criterion,
    euler_number,
    tv_closed_form,
    tv_seifert,
)

INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class PeriodicClass:
    """A periodic mapping class presented by the symbol of its mapping torus."""

    symbol: SeifertSymbol
    order_d: int
    surface_genus: int


@dataclass(frozen=True)
class ReportRow:
    """One invariant comparison; value fields are None when out of scope."""

    r: int
    s: int | None
    refined: bool | None
    value_a: float | None
    value_b: float | None
    equal: bool | None
    int_a: int | None
    int_b: int | None
    status: str


@dataclass(frozen=True)
class HempelReport:
    """All computed comparisons for a pair (class, k-th iterate)."""

    symbol_a: SeifertSymbol
    symbol_b: SeifertSymbol
    k: int
    k_star: int
    r_max: int
    tol: float
    rows: tuple[ReportRow, ...]
    verdict: str


def _order(sym: SeifertSymbol) -> int:
    return math.lcm(1, *(a for a, _ in sym.pairs))


def periodic_class(sym: SeifertSymbol) -> PeriodicClass:
    """Interpret the symbol as a periodic mapping torus.

    errors: ValueError when the Euler number is nonzero (the fibration is
    not a mapping torus of a periodic class) or the genus formula does
    not produce a non-negative integer.
    """
    if euler_number(sym) != 0:
        raise ValueError(
            f"symbol {sym} has Euler number {euler_number(sym)}, expected 0"
        )
    d = _order(sym)
    genus = (
        1
        + (sym.g - 1) * d
        + sum(Fraction(a - 1, a) for a, _ in sym.pairs) * Fraction(d, 2)
    )
    if genus.denominator != 1 or genus < 0:
        raise ValueError(f"genus formula gives {genus} for {sym}")
    return PeriodicClass(symbol=sym, order_d=d, surface_genus=int(genus))


def _inverse_mod(k: int, d: int) -> int:
    """Least positive inverse of k modulo d (1 when d = 1)."""
    if d == 1:
        return 1
    if math.gcd(k, d) != 1:
        raise ValueError(f"k={k} is not coprime to the order d={d}")
    return pow(k % d, -1, d)


def iterate(sym: SeifertSymbol, k: int) -> SeifertSymbol:
    """Symbol of the mapping torus of the k-th iterate: slopes scale by
    the inverse of k modulo the order."""
    k_star = _inverse_mod(k, _order(sym))
    return SeifertSymbol(sym.g, tuple((a, b * k_star) for a, b in sym.pairs))


def is_trivial_pair(sym: SeifertSymbol, k: int) -> bool:
    """True when the k-th iterate gives a homeomorphic mapping torus,
    i.e. k is congruent to +-1 modulo the order."""
    d = _order(sym)
    if math.gcd(k, d) != 1:
        raise ValueError(f"k={k} is not coprime to the order d={d}")
    return k % d in (1 % d, -1 % d)


def _uniform_closed_form_a(sym: SeifertSymbol) -> int | None:
    """The uniform cone order when the closed-form hypotheses hold."""
    orders = {a for a, _ in sym.pairs}
    if len(orders) != 1:
        return None
    a = orders.pop()
    if a < 3 or sym.n >= a:
        return None
    if sum(b for _, b in sym.pairs) != 0:
        return None
    return a


def _near_int(value: float) -> int | None:
    nearest = round(value)
    return int(nearest) if abs(value - nearest) <= INTEGRALITY_TOL else None


def report(
    sym: SeifertSymbol, k: int, r_max: int, tol: float = 1e-8
) -> HempelReport:
    """Compare the invariants of the mapping torus and its k-th iterate
    for every level 3 <= r <= r_max, one row per computable (r, s,
    refined); levels with no implemented formula get an out-of-scope
    marker row instead of being skipped."""
    if r_max < 3:
        raise ValueError(f"r_max must be at least 3, got {r_max}")
    d = _order(sym)
    k_star = _inverse_mod(k, d)
    sym_b = iterate(sym, k)
    a = _uniform_closed_form_a(sym)
    cert = check_unit_criterion(sym, a=a) if a is not None else None

    rows: list[ReportRow] = []

    def add_value_row(r: int, s: int, refined: bool, va: float, vb: float, status: str, flag_int: bool) -> None:
        equal = abs(va - vb) < tol * (1 + max(abs(va), abs(vb)))
        rows.append(
            ReportRow(
                r=r,
                s=s,
                refined=refined,
                value_a=va,
                value_b=vb,
                equal=equal,
                int_a=_near_int(va) if flag_int else None,
                int_b=_near_int(vb) if flag_int else None,
                status=status,
            )
        )

    for r in range(3, r_max + 1):
        if a is not None and r % a == 0 and (cert is None or r == a):
            for s in range(1, r):
                if math.gcd(s, r) != 1:
                    continue
                for refined in (False, True) if r % 2 == 1 and s % 2 == 0 else (False,):
                    if cert is None:
                        add_value_row(r, s, refined, 0.0, 0.0, "vanishing", False)
                        continue
                    va = tv_closed_form(sym, s, refined=refined, a=a)
                    vb = tv_closed_form(sym_b, s, refined=refined, a=a)
                    assert not isinstance(va, Vanishing)
                    assert not isinstance(vb, Vanishing)
                    add_value_row(r, s, refined, va, vb, "closed_form", False)
        elif math.gcd(r, d) == 1:
            va = tv_seifert(sym, r)
            vb = tv_seifert(sym_b, r)
            add_value_row(r, 1, False, va, vb, "ratio", True)
        else:
            rows.append(
                ReportRow(r, None, None, None, None, None, None, None, "out_of_scope")
            )

    rows.sort(key=lambda row: (row.r, row.s if row.s is not None else -1, bool(row.refined)))
    if is_trivial_pair(sym, k):
        verdict = "trivial"
    else:
        culprit = next((row for row in rows if row.equal is False), None)
        if culprit is not None:
            verdict = f"distinguishable({culprit.r},{culprit.s})"
        else:
            verdict = f"indistinguishable_up_to({r_max})"
    return HempelReport(
        symbol_a=sym,
        symbol_b=sym_b,
        k=k,
        k_star=k_star,
        r_max=r_max,
        tol=tol,
        rows=tuple(rows),
        verdict=verdict,
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def to_csv(rep: HempelReport) -> str:
    """Serialize report rows; values carry 12 significant digits."""
    lines = ["r,s,refined,value_A,value_B,equal,int_A,int_B,status"]
    for row in rep.rows:
        lines.append(
            ",".join(
                _cell(v)
                for v in (
                    row.r,
                    row.s,
                    row.refined,
                    row.value_a,
                    row.value_b,
                    row.equal,
                    row.int_a,
                    row.int_b,
                    row.status,
                )
            )
        )
    return "\n".join(lines) + "\n"
