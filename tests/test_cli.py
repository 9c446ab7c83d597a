"""Command-line surface: golden output, exit codes, environment fallback."""

import json
import os
import subprocess
import sys

import pytest

from mbm import __version__
from mbm.cli import main
from mbm.rational import BACKEND, rational

DATA = os.path.join(os.path.dirname(__file__), "data")
WORKED = os.path.join(DATA, "worked.csv")
GOLDEN = os.path.join(DATA, "golden_run_expected.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run ---------------------------------------------------------------------


def test_run_expected_matches_golden_file(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--captable", WORKED, "--mbar", "2", "--expected",
        "--format", "json",
    )
    assert code == 0
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        assert out == fh.read()


def test_run_expected_byte_stable_across_invocations(capsys):
    args = ("run", "--captable", WORKED, "--mbar", "2", "--expected", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_expected_reports_worked_values(capsys):
    _, out, _ = run_cli(
        capsys, "run", "--captable", WORKED, "--mbar", "2", "--expected",
        "--format", "json",
    )
    report = json.loads(out)
    assert report["price"] == "5"
    assert (report["p_high"], report["p_low"]) == ("4/5", "1/5")
    high, low = report["branches"]
    assert [a["final_share"] for a in high["agents"]] == ["5/8", "3/8", "0"]
    assert [a["final_share"] for a in low["agents"]] == ["1", "0", "0"]
    for branch in (high, low):
        payments = sum(rational(a["payment"]) for a in branch["agents"])
        assert payments == 0


def test_run_seeded_is_deterministic(capsys):
    args = ("run", "--captable", WORKED, "--mbar", "2", "--seed", "42")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert "mode=realized" in out1 or "realized" in out1


def test_run_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("MBM_SEED", "42")
    _, via_env, _ = run_cli(capsys, "run", "--captable", WORKED, "--mbar", "2")
    monkeypatch.delenv("MBM_SEED")
    _, via_flag, _ = run_cli(
        capsys, "run", "--captable", WORKED, "--mbar", "2", "--seed", "42"
    )
    assert via_env == via_flag


def test_run_csv_and_text_formats(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--captable", WORKED, "--mbar", "2", "--expected",
        "--format", "csv",
    )
    assert code == 0
    assert "final_share_approx" in out.splitlines()[3]
    code, out, _ = run_cli(
        capsys, "run", "--captable", WORKED, "--mbar", "2", "--expected",
        "--format", "text",
    )
    assert code == 0
    assert "price: 5" in out


def test_run_check_flag_includes_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--captable", WORKED, "--mbar", "2", "--expected",
        "--check", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert {c["property"] for c in report["checks"]} == {
        "budget-balance",
        "individual-rationality",
        "pp-expost-efficiency",
    }
    assert all(c["holds"] for c in report["checks"])


def test_run_rejects_out_of_range_mbar(capsys):
    code, _, err = run_cli(capsys, "run", "--captable", WORKED, "--mbar", "1")
    assert code == 2
    assert "m_bar" in err


def test_run_degenerate_buyers_exit_3(capsys, tmp_path):
    path = tmp_path / "degen.csv"
    path.write_text("agent_id,share,bid\na,0,10\nb,0,5\nc,1,2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--captable", str(path), "--mbar", "2")
    assert code == 3
    assert "zero initial shares" in err


def test_run_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "run", "--captable", "no-such.csv", "--mbar", "2")
    assert code == 2


def test_run_shares_off_simplex_exit_2(capsys, tmp_path):
    path = tmp_path / "off.csv"
    path.write_text("agent_id,share,bid\na,0.5,10\nb,0.3,5\nc,0.1,2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--captable", str(path), "--mbar", "2")
    assert code == 2
    assert "sum" in err
    code, _, _ = run_cli(
        capsys, "run", "--captable", str(path), "--mbar", "2", "--normalize"
    )
    assert code == 0


def test_run_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "run", "--captable", WORKED, "--mbar", "2", "--expected",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        assert out_path.read_text(encoding="utf-8") == fh.read()


# --- verify ------------------------------------------------------------------


def test_verify_all_suites_hold(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--instances", "8", "--seed", "7",
        "--n-range", "3..5",
    )
    assert code == 0
    verdicts = json.loads(out)
    assert verdicts and all(v["holds"] for v in verdicts)
    assert {v["suite"] for v in verdicts} == {
        "budget", "ir", "sp", "group-sp", "monotone", "efficiency",
    }


def test_verify_deterministic_for_fixed_seed(capsys):
    args = ("verify", "--suite", "budget", "--instances", "5", "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_injected_defect_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "budget", "--instances", "3", "--seed", "7",
        "--inject-defect", "payment",
    )
    assert code == 1
    verdicts = json.loads(out)
    assert any(not v["holds"] for v in verdicts)
    assert any(v["witness"] for v in verdicts)
    assert "violation" in err


def test_verify_explicit_group_suite_holds_within_budget(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "group-sp", "--instances", "10", "--seed", "11",
        "--n-range", "3..4",
    )
    assert code == 0
    verdicts = json.loads(out)
    assert len(verdicts) == 10
    assert all(v["holds"] for v in verdicts)


def test_verify_larger_mix_all_suites(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--instances", "50", "--seed", "7",
        "--n-range", "3..6",
    )
    assert code == 0
    assert all(v["holds"] for v in json.loads(out))


def test_verify_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("MBM_SEED", "3")
    _, via_env, _ = run_cli(capsys, "verify", "--suite", "budget", "--instances", "5")
    monkeypatch.delenv("MBM_SEED")
    _, via_flag, _ = run_cli(
        capsys, "verify", "--suite", "budget", "--instances", "5", "--seed", "3"
    )
    assert via_env == via_flag


def test_verify_group_budget_exceeded_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "group-sp", "--instances", "2", "--seed", "7",
        "--n-range", "6..6", "--budget", "50",
    )
    assert code == 4
    assert "budget" in err.lower()


# --- welfare -------------------------------------------------------------------


def test_welfare_csv_named_row(capsys):
    code, out, _ = run_cli(
        capsys, "welfare", "--n-list", "10", "--alpha-list", "1/2"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,alpha,sw_closed_form,sw_engine,preservation_ratio,limit_gap,sw_approx"
    fields = row.split(",")
    assert fields[:6] == ["10", "1/2", "33/40", "33/40", "33/40", "3/40"]
    assert fields[6] == "0.825"


def test_welfare_invalid_alpha_skipped_with_warning(capsys):
    code, out, err = run_cli(
        capsys, "welfare", "--n-list", "10", "--alpha-list", "1/2,1/3"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # header + the one valid row
    assert "skipping" in err


def test_welfare_engine_column_always_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "welfare", "--n-list", "4..12", "--alpha-list", "all"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == sum(n - 2 for n in range(4, 13))
    for row in rows:
        fields = row.split(",")
        assert fields[2] == fields[3]


def test_welfare_large_n_limit_gap(capsys):
    _, out, _ = run_cli(capsys, "welfare", "--n-list", "1000", "--alpha-list", "1/2")
    fields = out.strip().splitlines()[1].split(",")
    assert fields[5] == "3/4000"  # closed form minus (2 - alpha)/2


# --- version -------------------------------------------------------------------


def test_version_names_package_version_and_rational_backend(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == f"mbm {__version__} ({BACKEND} rational backend)\n"


# --- module entry point ---------------------------------------------------------


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mbm", "run", "--captable", WORKED, "--mbar", "2",
         "--expected", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["price"] == "5"
