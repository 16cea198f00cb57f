"""Command-line interface: compute invariants, verify identities, emit reports.

Subcommands:
  statesum FILE --r R [--s S] [--refined] [--method exact|float]
      State-sum invariant of a triangulation, as one JSON object
      {"r", "s", "refined", "value", "colorings"}.
  seifert SYMBOL --r R [--s S] [--refined]
      Invariant of a Seifert symbol, as {"value", "vanishing"}, by the
      formula seifert.level_route picks for level R: vanishing, closed
      form at R = a, or the ratio at R coprime to every cone order.
      "vanishing" is true only when the zero is exact by the unit
      criterion, never from a numerically small value.  A symbol with
      no pairs, such as "0;", takes its cone order from R.
  hempel SYMBOL --k K --r-max N [--csv PATH] [--tol T]
      Distinguishability report for the pair (symbol, iterate(symbol, k)).
      The symbol must present a periodic mapping torus: a nonzero Euler
      number, or a k not coprime to the order, is a domain error.
      Without --csv the CSV goes to stdout and the verdict to stderr;
      with --csv the CSV goes to the file and a JSON summary to stdout.
  verify SUITE [--r R] [--file FILE] [--tol T] [--seed SEED]
      Run a named identity suite; prints one line per property.
  dedekind B A
      Exact Dedekind sum as {"b", "a", "sum", "value"}.

Exit codes: 0 success; 1 domain error, engine limit (a frontier key past
62 bits, a coloring count past int64, a table index past int32, or
running out of memory) or failed reality check (one line "error: ..."
on stderr); 2 verification-suite failure (each failed property listed).

Triangulation files are taken as paths when they exist, otherwise looked
up by name in the asset directory (QUANTUM3_ASSETS overrides it).
Identical invocations produce byte-identical output on the exact path.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, TextIO

from .complex3 import (
    Triangulation,
    TriangulationError,
    enumerate_admissible,
    load_asset,
    load_triangulation,
    normal_surface_euler_parity,
    split_coloring,
)
from .cyclo import evaluation_points
from .hempel import check_tolerance, is_close, report, to_csv
from .seifert import (
    SeifertSymbol,
    check_unit_criterion,
    dedekind_sum,
    tv_closed_form,
    tv_routed,
    tv_seifert,
)
from .statesum import coloring_weight, tv, tv_prime

Check = tuple[bool, str]


class _Parser(argparse.ArgumentParser):
    """Argument errors are domain errors: exit 1, not argparse's 2."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_triangulation(file: str) -> Triangulation:
    if Path(file).exists():
        return load_triangulation(file)
    return load_asset(file)


def _cmd_statesum(args: argparse.Namespace, out: TextIO) -> int:
    t = _resolve_triangulation(args.file)
    compute = tv_prime if args.refined else tv
    result = compute(t, args.r, args.s, method=args.method)
    payload = {
        "r": result.r,
        "s": result.s,
        "refined": result.refined,
        "value": result.value,
        "colorings": result.coloring_count,
    }
    print(json.dumps(payload), file=out)
    return 0


def _cmd_seifert(args: argparse.Namespace, out: TextIO) -> int:
    sym = SeifertSymbol.parse(args.symbol)
    value, route = tv_routed(sym, args.r, args.s, refined=args.refined)
    print(json.dumps({"value": value, "vanishing": route == "vanishing"}), file=out)
    return 0


def _cmd_hempel(args: argparse.Namespace, out: TextIO) -> int:
    sym = SeifertSymbol.parse(args.symbol)
    rep = report(sym, args.k, args.r_max, tol=args.tol)
    csv_text = to_csv(rep)
    if args.csv is None:
        out.write(csv_text)
        # On a shared pipe the verdict must follow the CSV.
        out.flush()
        print(f"verdict: {rep.verdict}", file=sys.stderr)
    else:
        Path(args.csv).write_text(csv_text)
        summary = {
            "symbol_A": str(rep.symbol_a),
            "symbol_B": str(rep.symbol_b),
            "k": rep.k,
            "k_star": rep.k_star,
            "r_max": rep.r_max,
            "verdict": rep.verdict,
            "rows": len(rep.rows),
            "csv": args.csv,
        }
        print(json.dumps(summary), file=out)
    return 0


def _cmd_dedekind(args: argparse.Namespace, out: TextIO) -> int:
    value = dedekind_sum(args.b, args.a)
    payload = {
        "b": args.b,
        "a": args.a,
        "sum": str(value),
        "value": float(value),
    }
    print(json.dumps(payload), file=out)
    return 0


def _suite_splitting(args: argparse.Namespace) -> list[Check]:
    """TV_{r,s} factors through TV_3 and the refined invariant."""
    if args.r % 2 == 0 or args.r < 5:
        raise ValueError(f"splitting requires odd r >= 5, got r={args.r}")
    t = _resolve_triangulation(args.file or "s3_boundary4simplex.json")
    r = args.r
    v31 = tv(t, 3, 1, method="float").value
    v32 = tv(t, 3, 2, method="float").value
    checks = []
    for s in evaluation_points(r):
        full = tv(t, r, s, method="float").value
        if s % 2 == 0:
            product = v32 * tv_prime(t, r, s, method="float").value
            label = f"TV_{{{r},{s}}} = TV_{{3,2}} * TV'_{{{r},{s}}}"
        else:
            product = v31 * tv_prime(t, r, r - s, method="float").value
            label = f"TV_{{{r},{s}}} = TV_{{3,1}} * TV'_{{{r},{r - s}}}"
        checks.append((is_close(full, product, args.tol), f"{label}: {full:.12g}"))
    return checks


def _suite_hansen_vs_statesum(args: argparse.Namespace) -> list[Check]:
    """Squared ratio route at s=1 against the float state sum on the two
    Seifert spaces with a shipped triangulation, (0;) = S^2 x S^1 and
    (0; 1/1) = S^3, and against the unit-certificate closed form."""
    checks = []
    for text, name, levels in (
        ("0;", "s2xs1", range(3, 6)),
        ("0; 1/1", "s3_boundary4simplex", range(3, 8)),
    ):
        sym = SeifertSymbol.parse(text)
        t = load_asset(name)
        for r in levels:
            ratio_sq = tv_seifert(sym, r)
            state = tv(t, r, 1, method="float").value
            label = f"({sym}) at r={r}: ratio {ratio_sq:.12g} vs state sum on {name} {state:.12g}"
            checks.append((is_close(ratio_sq, state, args.tol), label))
    for a in (5, 7):
        for g in (0, 1):
            for n in (2, 4):
                pairs = tuple((a, 1) for _ in range(n // 2)) + tuple(
                    (a, -1) for _ in range(n // 2)
                )
                sym = SeifertSymbol(g, pairs)
                ratio_sq = tv_seifert(sym, a)
                closed = tv_closed_form(sym, 1)
                label = f"({sym}) at r={a}: ratio {ratio_sq:.12g} vs closed form"
                checks.append((is_close(ratio_sq, closed, args.tol), label))
    return checks


def _suite_vanishing(args: argparse.Namespace) -> list[Check]:
    """Symbols with no unit certificate give zero at levels divisible by a."""
    checks = []
    for text, a in (("0; 5/1, 5/1, 5/-2", 5), ("0; 7/1, 7/1, 7/1, 7/-3", 7)):
        sym = SeifertSymbol.parse(text)
        no_cert = check_unit_criterion(sym) is None
        checks.append((no_cert, f"({sym}): no unit certificate"))
        for r in (a, 2 * a):
            value = tv_seifert(sym, r)
            checks.append(
                (value < args.tol, f"({sym}) at r={r}: |ratio|^2 = {value:.3g}")
            )
    return checks


def _suite_sign_change(args: argparse.Namespace) -> list[Check]:
    """Per-coloring evaluation at s and r-s differ by the parity sign."""
    t = _resolve_triangulation(args.file or "s3_boundary4simplex.json")
    r = 5
    worst = 0.0
    total = 0
    for c in enumerate_admissible(t, r):
        w = coloring_weight(t, c)
        c3, _ = split_coloring(c)
        parity = normal_surface_euler_parity(t, c3)
        diff = abs(w.evaluate(1) - (-1) ** parity * w.evaluate(r - 1))
        worst = max(worst, diff)
        total += 1
    return [
        (
            worst <= args.tol,
            f"ev_{{5,1}} = (-1)^parity ev_{{5,4}} on {total} colorings "
            f"(max deviation {worst:.3g})",
        )
    ]


def _cotangent_sum(b: int, a: int) -> float:
    """(4a)^{-1} sum_l cot(pi l/a) cot(pi lb/a); both arguments are reduced
    to (-a/2, a/2] before the tangent so no precision is lost to large lb."""

    def terms():
        for l in range(1, a):
            m = (l * b) % a
            if 2 * m > a:
                m -= a
            ll = l if 2 * l <= a else l - a
            yield 1.0 / (math.tan(math.pi * ll / a) * math.tan(math.pi * m / a))

    return math.fsum(terms()) / (4 * a)


def _suite_dedekind(args: argparse.Namespace) -> list[Check]:
    """Recursive evaluation against the cotangent sum, plus reciprocity."""
    rng = random.Random(args.seed)
    worst = 0.0
    pairs = 0
    while pairs < 200:
        a = rng.randrange(2, 5001)
        b = rng.randrange(1, a)
        if math.gcd(a, b) != 1:
            continue
        pairs += 1
        worst = max(worst, abs(float(dedekind_sum(b, a)) - _cotangent_sum(b, a)))
    reciprocity_ok = True
    for _ in range(100):
        a = rng.randrange(2, 2001)
        b = rng.randrange(1, a)
        if math.gcd(a, b) != 1:
            continue
        lhs = dedekind_sum(b, a) + dedekind_sum(a, b)
        rhs = Fraction(-1, 4) + Fraction(a * a + b * b + 1, 12 * a * b)
        reciprocity_ok = reciprocity_ok and lhs == rhs
    return [
        (
            worst <= args.tol,
            f"recursion vs cotangent sum on {pairs} pairs "
            f"(max deviation {worst:.3g})",
        ),
        (reciprocity_ok, "reciprocity law exact on random pairs"),
    ]


def _suite_hempel_examples(args: argparse.Namespace) -> list[Check]:
    """The order-7 pair separates at level 7; the order-5 pair never does."""
    checks = []
    rep7 = report(SeifertSymbol.parse("0; 7/1, 7/1, 7/-1, 7/-1"), 2, 7, tol=args.tol)
    checks.append(
        (rep7.verdict == "distinguishable(7,1)", f"order-7 verdict: {rep7.verdict}")
    )
    row = next(r for r in rep7.rows if r.r == 7 and r.s == 1 and not r.refined)
    expected = math.sin(2 * math.pi / 7) ** 4 / math.sin(math.pi / 7) ** 4
    ratio_ok = row.value_b is not None and is_close(
        row.value_a / row.value_b, expected, args.tol
    )
    checks.append((ratio_ok, "order-7 values differ by the sine-ratio factor"))
    rep5 = report(SeifertSymbol.parse("0; 5/1, 5/1, 5/-2"), 2, 12, tol=args.tol)
    checks.append(
        (
            rep5.verdict == "indistinguishable_up_to(12)",
            f"order-5 verdict: {rep5.verdict}",
        )
    )
    equal_ok = all(r.equal for r in rep5.rows if r.equal is not None)
    checks.append((equal_ok, "order-5 pair agrees on every computed row"))
    zero_ok = all(
        r.value_a == 0.0 and r.value_b == 0.0 for r in rep5.rows if r.r % 5 == 0
    )
    checks.append((zero_ok, "order-5 rows at levels divisible by 5 vanish"))
    int_ok = all(
        r.int_a is not None and r.int_b is not None
        for r in rep5.rows
        if math.gcd(r.r, 5) == 1
    )
    checks.append((int_ok, "order-5 rows at coprime levels are near integers"))
    return checks


_SUITES: dict[str, Callable[[argparse.Namespace], list[Check]]] = {
    "splitting": _suite_splitting,
    "hansen-vs-statesum": _suite_hansen_vs_statesum,
    "vanishing": _suite_vanishing,
    "sign-change": _suite_sign_change,
    "dedekind": _suite_dedekind,
    "hempel-examples": _suite_hempel_examples,
}


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    check_tolerance(args.tol)
    checks = _SUITES[args.suite](args)
    failures = 0
    for ok, label in checks:
        print(("ok" if ok else "FAIL") + f": {label}", file=out)
        failures += 0 if ok else 1
    print(f"{args.suite}: {len(checks) - failures}/{len(checks)} passed", file=out)
    return 2 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quantum3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("statesum", help="state-sum invariant of a triangulation")
    p.add_argument("file", help="triangulation JSON path or asset name")
    p.add_argument("--r", type=int, required=True, help="level, r >= 3")
    p.add_argument("--s", type=int, default=1, help="root choice (default 1)")
    p.add_argument("--refined", action="store_true", help="even-color invariant")
    p.add_argument(
        "--method", choices=("exact", "float"), default="exact",
        help="exact cyclotomic value (rebuilt from residues) or floating point",
    )
    p.set_defaults(handler=_cmd_statesum)

    p = sub.add_parser("seifert", help="invariant of a Seifert symbol")
    p.add_argument("symbol", help='symbol text, e.g. "0; 5/1, 5/1, 5/-2"')
    p.add_argument("--r", type=int, required=True, help="level, r >= 3")
    p.add_argument("--s", type=int, default=1, help="root choice (default 1)")
    p.add_argument("--refined", action="store_true", help="even-color invariant")
    p.set_defaults(handler=_cmd_seifert)

    p = sub.add_parser("hempel", help="distinguishability report for an iterate pair")
    p.add_argument("symbol", help="zero-Euler-number symbol of the periodic class")
    p.add_argument("--k", type=int, required=True, help="iterate exponent")
    p.add_argument("--r-max", type=int, required=True, help="largest level")
    p.add_argument("--csv", help="write the CSV here instead of stdout")
    p.add_argument("--tol", type=float, default=1e-8, help="relative tolerance")
    p.set_defaults(handler=_cmd_hempel)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--r", type=int, default=5, help="level for level-based suites")
    p.add_argument("--file", help="triangulation path or asset name")
    p.add_argument("--tol", type=float, default=1e-8, help="relative tolerance")
    p.add_argument("--seed", type=int, default=20260815, help="RNG seed")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("dedekind", help="exact Dedekind sum s(b, a)")
    p.add_argument("b", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(handler=_cmd_dedekind)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, sys.stdout)
    except (
        ValueError, TriangulationError, OSError, MemoryError, ArithmeticError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
