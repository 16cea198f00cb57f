"""The four benchmark workloads, their seeded inputs and their reference checks.

Each workload is a closed loop: one caller asks for one invariant or one
report and waits for it before asking for the next.  The seed only picks
among inputs that cost the same work (evaluation points s that share one
grand sum, or the iterate exponent k of a Hempel pair), so every seed of
one workload measures the same amount of work with different values.

Why these four:

- exact: cyclotomic arithmetic (`cyclo`) and the dict frontier engine of
  `statesum`; the vector engine stays idle.
- float_wide: `s2xs1` at r=6 on the vector engine, where the sizing probe,
  the value sweep and its merge do almost all the work.
- float_narrow: the same vector engine on a small frontier, so per-call
  and per-step fixed costs (order, tables, probe) dominate.
- seifert: Hempel reports built on the ratio formula and the closed
  forms; it never touches `statesum`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# Relative tolerance of a state-sum value against its closed-form reference.
# The float engine stays within ~1e-13 on these inputs.
VALUE_TOL = 1e-9
# A Hempel ratio row is an integer invariant at levels coprime to the order.
INTEGER_TOL = 1e-6

ORDER7 = "0; 7/1, 7/1, 7/-1, 7/-1"
ORDER5 = "0; 5/1, 5/1, 5/-2"
HEMPEL_R_MAX = 100
# Verdicts of the paper's two pairs.  For the order-7 pair the iterate's
# slopes are the class's times k*, so its unit certificate is k times the
# class's (which is 1); for k != +-1 mod 7 the closed forms already differ
# at (7, 1).
# The order-5 pair has no certificate: every multiple of 5 vanishes for
# both, and the ratio rows agree.
HEMPEL_VERDICTS = {
    ORDER7: "distinguishable(7,1)",
    ORDER5: f"indistinguishable_up_to({HEMPEL_R_MAX})",
}


@dataclass(frozen=True)
class Op:
    """One operation: a call into the package and a check of its result.

    check returns None when the result matches its reference and a short
    reason otherwise."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= VALUE_TOL * (1 + abs(ref))


def _sphere_ref(r: int, s: int, refined: bool) -> float:
    # TV_{r,s}(S^3) = (2/r) sin^2(pi s/r); the refined sum has denominator
    # -r instead of -2r, which doubles it.
    return (4 if refined else 2) / r * math.sin(math.pi * s / r) ** 2


def _check_value(ref: float, count: int | None = None):
    def check(result) -> str | None:
        if not _close(result.value, ref):
            return f"value {result.value!r} != {ref!r}"
        if count is not None and result.coloring_count != count:
            return f"coloring_count {result.coloring_count} != {count}"
        return None

    return check


def _units(r: int, even_only: bool = False) -> list[int]:
    """Evaluation points 1 <= s < 2r with gcd(s, r) = 1."""
    return [
        s for s in range(1, 2 * r)
        if math.gcd(s, r) == 1 and (not even_only or s % 2 == 0)
    ]


def _exact_ops(q, rng: random.Random) -> list[Op]:
    sphere = q.load_asset("s3_boundary4simplex")
    s2xs1 = q.load_asset("s2xs1")
    ops = []
    for r in range(3, 8):
        s = rng.choice(_units(r))
        ops.append(Op(
            f"s3 tv r={r} s={s}",
            lambda r=r, s=s: q.tv(sphere, r, s, method="exact"),
            _check_value(_sphere_ref(r, s, False)),
        ))
    for r in (5, 7):
        s = rng.choice(_units(r, even_only=True))
        ops.append(Op(
            f"s3 tv_prime r={r} s={s}",
            lambda r=r, s=s: q.tv_prime(sphere, r, s, method="exact"),
            _check_value(_sphere_ref(r, s, True)),
        ))
    for r in (3, 4):
        s = rng.choice(_units(r))
        # 2^V admissible colorings at r=3: each vertex link picks 0 or 1.
        count = 2 ** s2xs1.vertex_count if r == 3 else None
        ops.append(Op(
            f"s2xs1 tv r={r} s={s}",
            lambda r=r, s=s: q.tv(s2xs1, r, s, method="exact"),
            _check_value(1.0, count),
        ))
    return ops


def _float_ops(q, rng: random.Random, plan) -> list[Op]:
    """plan: (r, refined, how many distinct s) triples on s2xs1, value 1."""
    s2xs1 = q.load_asset("s2xs1")
    ops = []
    for r, refined, n_s in plan:
        compute = q.tv_prime if refined else q.tv
        label = "tv_prime" if refined else "tv"
        for s in rng.sample(_units(r, even_only=refined), n_s):
            ops.append(Op(
                f"s2xs1 {label} r={r} s={s} float",
                lambda compute=compute, r=r, s=s: compute(s2xs1, r, s, method="float"),
                _check_value(1.0),
            ))
    return ops


def _check_report(sym_text: str):
    def closed_form_ref(symbol, s: int) -> float:
        # Genus-0 closed form at r = a, plain and refined alike:
        # a^(n-2) / 2^(2n-4) / sin^(2n-4)(pi b* s / a), with b* the unit
        # certificate b* b_j = +-1 (mod a).
        a = symbol.pairs[0][0]
        n = len(symbol.pairs)
        b_star = next(
            u for u in range(1, a)
            if math.gcd(u, a) == 1
            and all((u * b) % a in (1, a - 1) for _, b in symbol.pairs)
        )
        return a ** (n - 2) / 2 ** (2 * n - 4) / math.sin(math.pi * b_star * s / a) ** (2 * n - 4)

    def check(rep) -> str | None:
        if rep.verdict != HEMPEL_VERDICTS[sym_text]:
            return f"verdict {rep.verdict} != {HEMPEL_VERDICTS[sym_text]}"
        if not rep.rows:
            return "empty report"
        for row in rep.rows:
            pair = (row.value_a, row.value_b)
            if row.status == "vanishing" and pair != (0.0, 0.0):
                return f"row r={row.r} s={row.s} should vanish: {pair}"
            if row.status == "ratio":
                for v in pair:
                    if abs(v - round(v)) > INTEGER_TOL * (1 + abs(v)):
                        return f"row r={row.r} not near an integer: {v!r}"
            if row.status == "closed_form":
                for symbol, v in ((rep.symbol_a, row.value_a), (rep.symbol_b, row.value_b)):
                    ref = closed_form_ref(symbol, row.s)
                    if not _close(v, ref):
                        return f"closed form r={row.r} s={row.s}: {v!r} != {ref!r}"
        return None

    return check


def _seifert_ops(q, rng: random.Random) -> list[Op]:
    ops = []
    for sym_text, d in ((ORDER7, 7), (ORDER5, 5)):
        sym = q.SeifertSymbol.parse(sym_text)
        # units mod d other than +-1: the non-trivial iterates
        k = rng.choice([u for u in range(2, d - 1) if math.gcd(u, d) == 1])
        ops.append(Op(
            f"hempel {sym_text} k={k} r_max={HEMPEL_R_MAX}",
            lambda sym=sym, k=k: q.report(sym, k, HEMPEL_R_MAX),
            _check_report(sym_text),
        ))
    return ops


# name -> (why, builder(quantum3 module, rng) -> ops).  The builder does the
# set-up a user pays before the first call: asset loads and symbol parsing.
WORKLOADS: dict[str, tuple[str, Callable]] = {
    "exact": (
        "exact cyclotomic state sums: S^3 r=3..7 and refined r=5,7, s2xs1 r=3,4",
        _exact_ops,
    ),
    "float_wide": (
        "s2xs1 float r=6 at two s: probe, sweep and merge of a 3.9M-state frontier",
        lambda q, rng: _float_ops(q, rng, [(6, False, 2)]),
    ),
    "float_narrow": (
        "s2xs1 float r=5 (two s) and refined r=7 (three s): fixed costs of a small frontier",
        lambda q, rng: _float_ops(q, rng, [(5, False, 2), (7, True, 3)]),
    ),
    "seifert": (
        "Hempel reports to r_max=100 for the order-7 and order-5 pairs, k from the seed",
        _seifert_ops,
    ),
}


def build(name: str, q, seed: int) -> list[Op]:
    _, builder = WORKLOADS[name]
    return builder(q, random.Random(f"{name}:{seed}"))
