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

Each rule has one home: periodic_class (zero Euler number, order d) and
_iterate_pair (k*, gcd(k, d) = 1, the iterate, triviality).  iterate,
is_trivial_pair and report ask them, so each rejects a nonzero Euler number.

report() compares the invariants of the two tori level by level, on the
route that seifert.level_route picks for the level, decided once for
both tori (they share it):

- "vanishing" and "closed_form": one row per s of evaluation_points(r),
  plus a refined row per s of evaluation_points(r, refined=True);
- "ratio": the surgery-formula ratio gives the s = 1 value, which is an
  integer for mapping tori at levels coprime to the order, so the rows
  carry near-integer flags;
- "out_of_scope": one marker row, rather than an approximation.

Rows come in (r, s, refined) order and are serialized to CSV with the
header r,s,refined,value_A,value_B,equal,int_A,int_B,status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import evaluation_points, is_near_integer
from .seifert import SeifertSymbol, _tv_on_route, euler_number, level_route

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
    d = math.lcm(1, *(a for a, _ in sym.pairs))
    genus = (
        1
        + (sym.g - 1) * d
        + sum(Fraction(a - 1, a) for a, _ in sym.pairs) * Fraction(d, 2)
    )
    if genus.denominator != 1 or genus < 0:
        raise ValueError(f"genus formula gives {genus} for {sym}")
    return PeriodicClass(symbol=sym, order_d=d, surface_genus=int(genus))


def _iterate_pair(sym: SeifertSymbol, k: int) -> tuple[int, SeifertSymbol, bool]:
    """(k*, iterate symbol, trivial): k* is the least positive inverse of k
    modulo the order d of periodic_class(sym) (1 when d = 1), and the pair
    is trivial when k = +-1 (mod d), that is, when k* is 1 or d - 1."""
    d = periodic_class(sym).order_d
    if math.gcd(k, d) != 1:
        raise ValueError(f"k={k} is not coprime to the order d={d}")
    k_star = pow(k, -1, d) if d > 1 else 1
    sym_b = SeifertSymbol(sym.g, tuple((a, b * k_star) for a, b in sym.pairs))
    return k_star, sym_b, k_star in (1, d - 1)


def iterate(sym: SeifertSymbol, k: int) -> SeifertSymbol:
    """Symbol of the mapping torus of the k-th iterate: slopes scale by k*."""
    return _iterate_pair(sym, k)[1]


def is_trivial_pair(sym: SeifertSymbol, k: int) -> bool:
    """True when the k-th iterate gives a homeomorphic mapping torus."""
    return _iterate_pair(sym, k)[2]


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless tol is a positive finite number: an
    infinite tolerance passes every comparison and a NaN fails every one."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def is_close(x: float, y: float, tol: float) -> bool:
    """Whether x and y differ by at most tol (1 + the larger modulus):
    the one closeness rule of report rows and the verify suites."""
    return abs(x - y) <= tol * (1 + max(abs(x), abs(y)))


def report(
    sym: SeifertSymbol, k: int, r_max: int, tol: float = 1e-8
) -> HempelReport:
    """Compare the invariants of the mapping torus and its k-th iterate
    for every level 3 <= r <= r_max, one row per computable (r, s,
    refined); levels with no implemented formula get an out-of-scope
    marker row instead of being skipped.  Two values are equal when
    is_close(value_a, value_b, tol).

    errors: ValueError when r_max < 3, tol is not a positive finite
    number, the symbol has a nonzero Euler number (periodic_class), or k
    is not coprime to the order."""
    if r_max < 3:
        raise ValueError(f"r_max must be at least 3, got {r_max}")
    check_tolerance(tol)
    k_star, sym_b, trivial = _iterate_pair(sym, k)
    rows: list[ReportRow] = []
    for r in range(3, r_max + 1):
        route = level_route(sym, r)
        if route == "out_of_scope":
            rows.append(ReportRow(r, None, None, None, None, None, None, None, route))
            continue
        cells = [(1, False)] if route == "ratio" else sorted(
            (s, refined) for refined in (False, True) for s in evaluation_points(r, refined)
        )
        flag_int = route == "ratio"
        for s, refined in cells:
            va = _tv_on_route(sym, r, s, refined, route)
            vb = _tv_on_route(sym_b, r, s, refined, route)
            rows.append(
                ReportRow(
                    r=r,
                    s=s,
                    refined=refined,
                    value_a=va,
                    value_b=vb,
                    equal=is_close(va, vb, tol),
                    int_a=is_near_integer(va, INTEGRALITY_TOL) if flag_int else None,
                    int_b=is_near_integer(vb, INTEGRALITY_TOL) if flag_int else None,
                    status=route,
                )
            )

    culprit = next((row for row in rows if row.equal is False), None)
    if trivial:
        verdict = "trivial"
    elif culprit is not None:
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
