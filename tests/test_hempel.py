"""Periodic classes, iterates, and pair-distinguishability reports."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quantum3.hempel import (
    HempelReport,
    PeriodicClass,
    is_trivial_pair,
    iterate,
    periodic_class,
    report,
    to_csv,
)
from quantum3.seifert import SeifertSymbol, same_manifold, tv_closed_form


def sym(text: str) -> SeifertSymbol:
    return SeifertSymbol.parse(text)


def test_periodic_class_examples():
    pc = periodic_class(sym("0; 5/1, 5/1, 5/-2"))
    assert pc.order_d == 5 and pc.surface_genus == 2
    # The orbifold-cover computation: chi(S) = d * (2 - 2g - sum(1 - 1/a)),
    # so genus = 1 - 7 + 4*(6/7)*(7/2) = 6 here.
    pc7 = periodic_class(sym("0; 7/1, 7/1, 7/-1, 7/-1"))
    assert pc7.order_d == 7 and pc7.surface_genus == 6
    torus = periodic_class(sym("1;"))
    assert torus.order_d == 1 and torus.surface_genus == 1
    sphere = periodic_class(sym("0; 5/1, 5/-1"))
    assert sphere.order_d == 5 and sphere.surface_genus == 0


def test_periodic_class_requires_zero_euler_number():
    with pytest.raises(ValueError):
        periodic_class(sym("0; 1/1"))
    with pytest.raises(ValueError):
        periodic_class(sym("0; 5/1, 5/1, 5/-1"))


def test_iterate_examples():
    s = sym("0; 5/1, 5/1, 5/-2")
    assert iterate(s, 1) == s
    assert iterate(s, 2) == sym("0; 5/3, 5/3, 5/-6")
    s7 = sym("0; 7/1, 7/1, 7/-1, 7/-1")
    assert iterate(s7, 2) == sym("0; 7/4, 7/4, 7/-4, 7/-4")
    assert iterate(sym("1;"), 12345) == sym("1;")
    with pytest.raises(ValueError):
        iterate(s, 5)
    with pytest.raises(ValueError):
        iterate(s7, 14)


def test_iterate_round_trip_is_move_equivalent():
    rng = random.Random(20260815)
    symbols = [
        sym("0; 5/1, 5/1, 5/-2"),
        sym("0; 7/1, 7/1, 7/-1, 7/-1"),
        sym("1; 9/2, 9/-2"),
        sym("2; 5/2, 5/3, 5/-1, 5/-4"),
    ]
    for s in symbols:
        d = periodic_class(s).order_d
        for _ in range(4):
            k = rng.randrange(1, d)
            if math.gcd(k, d) != 1:
                continue
            k_star = pow(k, -1, d)
            assert same_manifold(iterate(iterate(s, k), k_star), s)


def test_trivial_pair_detection():
    s7 = sym("0; 7/1, 7/1, 7/-1, 7/-1")
    assert is_trivial_pair(s7, 6)
    assert is_trivial_pair(s7, 8)
    assert not is_trivial_pair(s7, 2)
    assert is_trivial_pair(sym("0; 5/1, 5/1, 5/-2"), 4)
    with pytest.raises(ValueError):
        is_trivial_pair(s7, 7)


def test_report_distinguishable_pair():
    rep = report(sym("0; 7/1, 7/1, 7/-1, 7/-1"), 2, 7)
    assert isinstance(rep, HempelReport)
    assert rep.k_star == 4
    assert rep.symbol_b == sym("0; 7/4, 7/4, 7/-4, 7/-4")
    assert rep.verdict == "distinguishable(7,1)"
    first = next(row for row in rep.rows if row.r == 7 and row.s == 1)
    assert first.status == "closed_form" and first.equal is False
    assert abs(first.value_a - 49 / 16 / math.sin(math.pi / 7) ** 4) < 1e-9
    assert abs(first.value_b - 49 / 16 / math.sin(2 * math.pi / 7) ** 4) < 1e-9
    # Levels below 7 are coprime to the order and do not distinguish.
    for row in rep.rows:
        if row.r < 7:
            assert row.status == "ratio" and row.equal is True
            assert row.int_a is not None and row.int_b is not None


def test_report_refined_closed_form_rows():
    # At r = a = 7 each even s also gets a refined closed-form row.
    s7 = sym("0; 7/1, 7/1, 7/-1, 7/-1")
    rep = report(s7, 2, 7)
    refined = [row for row in rep.rows if row.r == 7 and row.refined]
    assert [row.s for row in refined] == [2, 4, 6]
    for row in refined:
        assert row.status == "closed_form"
        assert row.value_a == tv_closed_form(s7, row.s, refined=True, a=7)
        assert row.value_b == tv_closed_form(rep.symbol_b, row.s, refined=True, a=7)


def test_report_indistinguishable_pair():
    rep = report(sym("0; 5/1, 5/1, 5/-2"), 2, 12)
    assert rep.verdict == "indistinguishable_up_to(12)"
    assert all(row.equal is True for row in rep.rows)
    for row in rep.rows:
        if row.r % 5 == 0:
            assert row.status == "vanishing"
            assert row.value_a == 0.0 and row.value_b == 0.0
        else:
            assert row.status == "ratio" and math.gcd(row.r, 5) == 1
            assert row.int_a is not None and row.int_b is not None
    # Refined rows appear exactly at odd multiples of 5 with even s.
    assert any(row.refined for row in rep.rows if row.r == 5)
    assert not any(row.refined for row in rep.rows if row.r == 10)


def test_paper_pairs_to_r_max_100():
    s7 = sym("0; 7/1, 7/1, 7/-1, 7/-1")
    for k in (2, 3):
        assert report(s7, k, 100).verdict == "distinguishable(7,1)"
    rep = report(sym("0; 5/1, 5/1, 5/-2"), 2, 100)
    assert rep.verdict == "indistinguishable_up_to(100)"
    assert {row.r for row in rep.rows} == set(range(3, 101))
    for row in rep.rows:
        if row.r % 5 == 0:
            assert row.status == "vanishing", f"r={row.r}"
            assert row.value_a == 0.0 and row.value_b == 0.0, f"r={row.r}"
        else:
            assert row.status == "ratio" and row.equal is True, f"r={row.r}"
            assert row.int_a is not None and row.int_b is not None, f"r={row.r}"


def test_report_trivial_pair():
    rep = report(sym("0; 5/1, 5/1, 5/-2"), 1, 8)
    assert rep.verdict == "trivial"
    assert rep.symbol_b == rep.symbol_a
    assert all(row.equal is True for row in rep.rows if row.equal is not None)
    rep_neg = report(sym("0; 7/1, 7/1, 7/-1, 7/-1"), 6, 5)
    assert rep_neg.verdict == "trivial"


def test_report_out_of_scope_rows():
    # A certificate exists, so proper multiples of the cone order have no
    # implemented formula and must be marked, not skipped.
    rep = report(sym("0; 7/1, 7/1, 7/-1, 7/-1"), 2, 14)
    row14 = [row for row in rep.rows if row.r == 14]
    assert len(row14) == 1 and row14[0].status == "out_of_scope"
    assert row14[0].value_a is None and row14[0].equal is None
    covered = {row.r for row in rep.rows}
    assert covered == set(range(3, 15))


def test_report_validation():
    with pytest.raises(ValueError):
        report(sym("0; 5/1, 5/1, 5/-2"), 5, 10)
    with pytest.raises(ValueError):
        report(sym("0; 5/1, 5/1, 5/-2"), 2, 2)


def test_csv_serialization():
    rep = report(sym("0; 5/1, 5/1, 5/-2"), 2, 6)
    text = to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "r,s,refined,value_A,value_B,equal,int_A,int_B,status"
    assert len(lines) == len(rep.rows) + 1
    for line, row in zip(lines[1:], rep.rows):
        cells = line.split(",")
        assert cells[0] == str(row.r)
        assert cells[5] in ("true", "false", "")
        assert cells[8] == row.status
    # Numeric cells use 12 significant digits.
    for line, row in zip(lines[1:], rep.rows):
        value_cell = line.split(",")[3]
        if row.value_a is None:
            assert value_cell == ""
        else:
            assert value_cell == "%.12g" % row.value_a


def test_report_does_not_load_numpy():
    # numpy is imported lazily by the state-sum engine only; a Hempel
    # report never pays for it.
    import quantum3

    package_root = str(Path(quantum3.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import sys, quantum3\n"
        "rep = quantum3.report(quantum3.SeifertSymbol.parse('0; 5/1, 5/1, 5/-2'), 2, 12)\n"
        "print(len(rep.rows), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    rows, loaded = proc.stdout.split()
    assert int(rows) > 0 and loaded == "False"
