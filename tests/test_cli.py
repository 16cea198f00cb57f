"""Command-line surface: JSON/CSV output, exit codes, verification suites."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from weakref import WeakKeyDictionary

import pytest

from quantum3 import statesum
from quantum3.cli import main
from quantum3.complex3 import asset_dir


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
    code, out, _ = run(
        capsys, "seifert", "0; 5/1, 5/1, 5/-2", "--r", "5", "--mode", "closed_form"
    )
    assert code == 0
    assert json.loads(out) == {"value": 0.0, "vanishing": True}


def test_seifert_modes_agree(capsys):
    _, out_c, _ = run(capsys, "seifert", "0; 7/1, 7/1, 7/-1, 7/-1", "--r", "7")
    _, out_h, _ = run(
        capsys, "seifert", "0; 7/1, 7/1, 7/-1, 7/-1", "--r", "7", "--mode", "hansen"
    )
    closed = json.loads(out_c)
    hansen = json.loads(out_h)
    assert abs(closed["value"] - 49 / 16 / math.sin(math.pi / 7) ** 4) < 1e-9
    assert abs(closed["value"] - hansen["value"]) < 1e-8 * closed["value"]
    assert closed["vanishing"] is False


def test_seifert_without_pairs_takes_cone_order_from_r(capsys):
    # Sigma_g x S^1: the closed form's cone order is the level itself.
    for symbol, value in (("0;", 1.0), ("1;", 16.0)):
        code, out_c, _ = run(capsys, "seifert", symbol, "--r", "5")
        assert code == 0
        _, out_h, _ = run(capsys, "seifert", symbol, "--r", "5", "--mode", "hansen")
        assert json.loads(out_c) == json.loads(out_h) == {"value": value, "vanishing": False}
    code, out, _ = run(capsys, "seifert", "1;", "--r", "7", "--refined", "--s", "2")
    assert code == 0
    assert json.loads(out) == {"value": 9.0, "vanishing": False}


def test_seifert_domain_errors(capsys):
    code, _, err = run(
        capsys, "seifert", "0; 7/1, 7/1, 7/-1, 7/-1", "--r", "7",
        "--mode", "hansen", "--s", "2",
    )
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "seifert", "0; 5/1, 5/1, 5/-2", "--r", "7")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "seifert", "not a symbol", "--r", "5")
    assert code == 1 and err.startswith("error:")


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


@pytest.mark.parametrize(
    "exc",
    [
        MemoryError("frontier exceeded 60000000 states (60000001)"),
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


def test_flag_errors_exit_1(capsys):
    assert run(capsys, "statesum")[0] == 1
    assert run(capsys, "verify", "nosuite")[0] == 1
    assert run(capsys, "bogus")[0] == 1


def test_module_entry_point():
    # The child imports the quantum3 this process imported, which pytest's
    # pythonpath setting may have put on sys.path without setting PYTHONPATH.
    package_root = str(Path(statesum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for module in ("quantum3.cli", "quantum3"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "dedekind", "3", "8"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["sum"] == "1/16"
