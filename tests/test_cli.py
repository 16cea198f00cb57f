"""Command-line surface: JSON/CSV output, exit codes, verification suites."""

import json
import math
import os
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from weakref import WeakKeyDictionary

import pytest

from quantum3 import statesum
from quantum3.cli import main
from quantum3.complex3 import asset_dir, disjoint_union, load_asset
from quantum3.hempel import report
from quantum3.seifert import SeifertSymbol, tv_prime_seifert, tv_seifert


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_statesum_json(capsys):
    code, out, _ = run(capsys, "statesum", "s3_boundary4simplex", "--r", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == 5 and payload["s"] == 1
    assert payload["refined"] is False
    assert payload["colorings"] == 832
    assert abs(payload["value"] - 0.4 * math.sin(math.pi / 5) ** 2) < 1e-9


def test_statesum_accepts_paths_and_names(capsys):
    direct = str(asset_dir() / "s3_boundary4simplex.json")
    code, out_a, _ = run(capsys, "statesum", direct, "--r", "4")
    code_b, out_b, _ = run(capsys, "statesum", "s3_boundary4simplex.json", "--r", "4")
    assert code == 0 and code_b == 0
    assert json.loads(out_a) == json.loads(out_b)


def test_statesum_asset_dir_override(tmp_path, monkeypatch, capsys):
    shutil.copy(asset_dir() / "s3_boundary4simplex.json", tmp_path / "copy.json")
    monkeypatch.setenv("QUANTUM3_ASSETS", str(tmp_path))
    code, out, _ = run(capsys, "statesum", "copy", "--r", "3")
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.5) < 1e-9


def test_statesum_exact_output_is_deterministic(capsys, monkeypatch):
    argv = ("statesum", "s3_boundary4simplex", "--r", "5", "--s", "2")
    outs = []
    for _ in range(2):
        # The asset object is shared, so drop its cached grand sum: each
        # run computes cold.
        monkeypatch.setattr(statesum, "_GRAND_CACHE", WeakKeyDictionary())
        outs.append(run(capsys, *argv)[1])
    assert outs[0] == outs[1]


def test_statesum_refined_and_float(capsys):
    code, out, _ = run(
        capsys, "statesum", "s3_boundary4simplex", "--r", "5", "--s", "2",
        "--refined",
    )
    assert code == 0
    refined = json.loads(out)
    assert refined["refined"] is True
    assert abs(refined["value"] - 0.8 * math.sin(2 * math.pi / 5) ** 2) < 1e-9
    _, out_f, _ = run(
        capsys, "statesum", "s3_boundary4simplex", "--r", "5", "--s", "2",
        "--refined", "--method", "float",
    )
    assert abs(json.loads(out_f)["value"] - refined["value"]) < 1e-12


def test_seifert_vanishing_json(capsys):
    code, out, _ = run(capsys, "seifert", "0; 5/1, 5/1, 5/-2", "--r", "5")
    assert code == 0
    assert json.loads(out) == {"value": 0.0, "vanishing": True}


def test_seifert_modes_agree(capsys):
    # The closed form at r = a and the ratio at a level coprime to a.
    s7 = "0; 7/1, 7/1, 7/-1, 7/-1"
    _, out_c, _ = run(capsys, "seifert", s7, "--r", "7")
    closed = json.loads(out_c)
    assert abs(closed["value"] - 49 / 16 / math.sin(math.pi / 7) ** 4) < 1e-9
    assert abs(closed["value"] - tv_seifert(SeifertSymbol.parse(s7), 7)) < 1e-8 * closed["value"]
    assert closed["vanishing"] is False
    s5 = "0; 5/1, 5/1, 5/-2"
    code, out_r, _ = run(capsys, "seifert", s5, "--r", "7")
    assert code == 0
    assert json.loads(out_r) == {
        "value": tv_seifert(SeifertSymbol.parse(s5), 7), "vanishing": False
    }


def test_seifert_without_pairs_takes_cone_order_from_r(capsys):
    # Sigma_g x S^1: the closed form's cone order is the level itself.
    for symbol, value in (("0;", 1.0), ("1;", 16.0)):
        code, out, _ = run(capsys, "seifert", symbol, "--r", "5")
        assert code == 0
        assert json.loads(out) == {"value": value, "vanishing": False}
        assert abs(value - tv_seifert(SeifertSymbol.parse(symbol), 5)) < 1e-9 * value
    code, out, _ = run(capsys, "seifert", "1;", "--r", "7", "--refined", "--s", "2")
    assert code == 0
    assert json.loads(out) == {"value": 9.0, "vanishing": False}


def test_seifert_domain_errors(capsys):
    for argv in (
        # A proper multiple of a with a unit certificate: no formula.
        ("0; 7/1, 7/1, 7/-1, 7/-1", "--r", "14"),
        # The ratio covers s = +-1 (mod 2r) only.
        ("0; 5/1, 5/1, 5/-2", "--r", "7", "--s", "2"),
        # The --mode option is gone.
        ("0; 7/1, 7/1, 7/-1, 7/-1", "--r", "7", "--mode", "hansen"),
        ("not a symbol", "--r", "5"),
    ):
        code, _, err = run(capsys, "seifert", *argv)
        assert code == 1 and err.startswith("error:")


# 200 fibers of cone order 3: the squared ratio first overflows float at r=23.
MANY_FIBERS = "0; " + ", ".join(["3/1, 3/-1"] * 100)


@pytest.mark.parametrize(
    "symbol, r",
    [
        # The ratio overflows to inf and inf * 0 gives NaN.
        pytest.param(MANY_FIBERS, 100, id="100"),
        # The ratio is finite, but its square overflows.
        pytest.param(MANY_FIBERS, 23, id="23"),
        # The Verlinde form of a genus-300 surface times S^1: an overflow
        # to inf at r=7, an overflowing float power at r=5.
        pytest.param("300;", 7, id="verlinde-inf"),
        pytest.param("300;", 5, id="verlinde-power"),
        # The unit-certificate form: a^(n+2g-2) / 2^(2n+2g-4) passes float
        # at a=401, and the value overflows to inf at a=101.
        pytest.param("0; " + ", ".join(["401/1, 401/-1"] * 200), 401, id="closed-form-int"),
        pytest.param("0; " + ", ".join(["101/1, 101/-1"] * 40), 101, id="closed-form-inf"),
        # The sine power underflows to 0 before the division.
        pytest.param("224; 7/1, 7/-1", 7, id="closed-form-zero-sine-power"),
    ],
)
def test_seifert_overflow_exits_1(symbol, r, capsys):
    code, out, err = run(capsys, "seifert", symbol, "--r", str(r))
    assert code == 1 and "NaN" not in out and "Infinity" not in out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"at r={r} overflows float" in lines[0]


def test_hempel_overflow_exits_1(capsys):
    code, out, err = run(capsys, "hempel", MANY_FIBERS, "--k", "1", "--r-max", "30")
    assert code == 1 and "NaN" not in out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "at r=23 overflows float" in lines[0]


def test_hempel_closed_form_overflow_exits_1(capsys):
    # Every level of a symbol with no pairs takes the Verlinde form, which
    # first overflows at r=4 for genus 300.
    code, out, err = run(capsys, "hempel", "300;", "--k", "1", "--r-max", "8")
    assert code == 1 and "NaN" not in out and "Infinity" not in out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "(300;) at r=4 overflows float" in lines[0]


def test_seifert_rejects_s_not_coprime_to_r(capsys):
    for flags in ((), ("--refined",)):
        code, out, err = run(
            capsys, "seifert", "0; 5/1, 5/1, 5/-2", "--r", "10", "--s", "2", *flags
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")


ROUTE_SYMBOLS = (
    "0; 7/1, 7/1, 7/-1, 7/-1",
    "0; 5/1, 5/1, 5/-2",
    "1; 5/1, 5/-1",
    "0; 7/1, 7/2, 7/-3",
    "2; 7/1, 7/-1",
    "0; 3/1, 3/-1, 5/1, 5/-1",
    "0; 9/1, 9/-1",
    "0; 7/1, 7/1, 7/1, 7/-3",
    "0; 4/1, 4/-1",
    "1;",
)


@pytest.mark.parametrize("text", ROUTE_SYMBOLS)
def test_seifert_cli_follows_report_routes(text, capsys):
    # The CLI, the Hempel report and tv_prime_seifert take one route per
    # level: the CLI prints each row's value_A and flags exactly the
    # vanishing rows, and out-of-scope levels exit 1.
    symbol = SeifertSymbol.parse(text)
    for row in report(symbol, 1, 30).rows:
        if row.status == "out_of_scope":
            code, _, err = run(capsys, "seifert", text, "--r", str(row.r))
            assert code == 1 and err.startswith("error:")
            continue
        flags = ("--refined",) if row.refined else ()
        code, out, _ = run(capsys, "seifert", text, "--r", str(row.r), "--s", str(row.s), *flags)
        assert code == 0, (row.r, row.s, row.refined)
        assert json.loads(out) == {
            "value": row.value_a, "vanishing": row.status == "vanishing"
        }
        if row.refined:
            assert tv_prime_seifert(symbol, row.r, row.s) == row.value_a


def test_hempel_csv_on_stdout(capsys):
    code, out, err = run(
        capsys, "hempel", "0; 7/1, 7/1, 7/-1, 7/-1", "--k", "2", "--r-max", "7"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,s,refined,value_A,value_B,equal,int_A,int_B,status"
    assert "verdict: distinguishable(7,1)" in err


def test_hempel_csv_file_and_summary(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "hempel", "0; 5/1, 5/1, 5/-2", "--k", "2", "--r-max", "12",
        "--csv", str(path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["verdict"] == "indistinguishable_up_to(12)"
    assert summary["k_star"] == 3
    assert summary["symbol_B"] == "0; 5/3, 5/3, 5/-6"
    text = path.read_text()
    assert text.startswith("r,s,refined,")
    assert len(text.strip().split("\n")) == summary["rows"] + 1


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_hempel_rejects_tolerances_that_flip_verdicts(tol, capsys):
    code, out, err = run(
        capsys, "hempel", "0; 5/1, 5/1, 5/-2", "--k", "2", "--r-max", "12",
        "--tol", tol,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: tol must be a positive finite number")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text, r_max", [("0; 3/1, 3/1", "5"), ("0; 5/1, 5/1, 5/-1", "6")]
)
def test_hempel_rejects_nonzero_euler_number(text, r_max, capsys):
    code, out, err = run(capsys, "hempel", text, "--k", "2", "--r-max", r_max)
    assert code == 1 and out == ""
    assert err.startswith(f"error: symbol {text} has Euler number")
    assert err.count("\n") == 1


def test_dedekind_json(capsys):
    code, out, _ = run(capsys, "dedekind", "1", "5")
    assert code == 0
    assert json.loads(out) == {"b": 1, "a": 5, "sum": "1/5", "value": 0.2}


def test_verify_suites_pass(capsys):
    for suite in (
        "hansen-vs-statesum", "vanishing", "sign-change", "dedekind", "hempel-examples",
    ):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0, f"{suite} failed:\n{out}"
        assert "FAIL" not in out
        assert out.strip().split("\n")[-1].endswith("passed")


def test_verify_splitting_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "splitting", "--r", "5",
        "--file", "s3_boundary4simplex.json",
    )
    assert code == 0
    assert out.count("ok: ") == 4


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_rejects_tolerances_that_decide_every_check(tol, capsys):
    # An infinite tolerance would pass every suite whatever the program
    # computes, and a NaN would fail every one.
    code, out, err = run(capsys, "verify", "dedekind", "--tol", tol)
    assert code == 1 and out == ""
    assert err.startswith("error: tol must be a positive finite number")
    assert err.count("\n") == 1


def test_verify_reports_failures_with_exit_2(capsys):
    code, out, _ = run(capsys, "verify", "dedekind", "--tol", "1e-20")
    assert code == 2
    assert "FAIL: recursion vs cotangent sum" in out


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "statesum", "missing.json", "--r", "5")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "statesum", "s2xs1", "--r", "2")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "verify", "splitting", "--r", "4")
    assert code == 1 and err.startswith("error:")
    # The refined ratio route needs odd cone orders and zero Euler number.
    for symbol, r, s, text in (
        ("0; 2/1, 2/-1", 3, 2, "requires all cone orders odd"),
        ("0; 3/1", 5, 4, "requires zero Euler number"),
    ):
        code, out, err = run(capsys, "seifert", symbol, "--r", str(r), "--s", str(s), "--refined")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and text in err and err.count("\n") == 1


def test_statesum_rejects_pseudo_manifold(tmp_path, capsys):
    # Two 3-spheres sharing vertex 0, as in test_complex3: rejected at load.
    label = [list(q) for q in combinations(range(5), 4)]
    pinched = label + [[0 if v == 0 else v + 4 for v in q] for q in label]
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps({"tetrahedra": pinched}))
    code, out, err = run(capsys, "statesum", str(path), "--r", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "vertex 0 link" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "exc",
    [
        MemoryError("out of memory"),
        ArithmeticError("state sum lost reality: (1+1j)"),
    ],
)
def test_engine_limits_exit_1(exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("quantum3.cli.tv", fail)
    code, out, err = run(capsys, "statesum", "s2xs1", "--r", "5")
    assert code == 1 and out == ""
    assert err == f"error: {exc}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, r, text",
    [
        ("s2xs1", 18, "too wide to pack"),
        ("s3_boundary4simplex", 38, "pass int32"),
        ("five spheres", 7, "passes int64"),
    ],
)
def test_real_engine_limits_exit_1(name, r, text, tmp_path, capsys):
    # The engine's own limits, unpatched: 62-bit keys (15 slots of 5 bits
    # at r=18), int32 table indices (37^6 digit tuples at r=38) and int64
    # counts (16064^5 ~ 1.1e21 colorings of five disjoint spheres at r=7).
    if name == "five spheres":
        sphere = load_asset("s3_boundary4simplex")
        five = sphere
        for _ in range(4):
            five = disjoint_union(five, sphere)
        name = str(tmp_path / "five_spheres.json")
        Path(name).write_text(json.dumps(five.to_json_dict()))
    code, out, err = run(capsys, "statesum", name, "--r", str(r), "--method", "float")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and text in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_flag_errors_exit_1(capsys):
    assert run(capsys, "statesum")[0] == 1
    assert run(capsys, "verify", "nosuite")[0] == 1
    assert run(capsys, "bogus")[0] == 1


def _child_env() -> dict:
    """The environment of a child process that imports the quantum3 this
    process imported, which pytest's pythonpath setting may have put on
    sys.path without setting PYTHONPATH."""
    package_root = str(Path(statesum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    for module in ("quantum3.cli", "quantum3"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "dedekind", "3", "8"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["sum"] == "1/16"


def test_hempel_verdict_comes_last_on_a_shared_pipe():
    # stdout is block-buffered on a pipe (unless PYTHONUNBUFFERED is set):
    # the CSV must be flushed before the verdict goes to stderr, so
    # `2>&1 | tail -n 1` reads the verdict.
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "quantum3", "hempel", "0; 7/1, 7/1, 7/-1, 7/-1",
         "--k", "2", "--r-max", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "r,s,refined,value_A,value_B,equal,int_A,int_B,status"
    assert lines[-1] == "verdict: distinguishable(7,1)"
