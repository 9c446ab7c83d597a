"""Command-line surface: golden output, exit codes, environment fallback."""

import argparse
import contextlib
import csv
import decimal
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from decimal import ROUND_DOWN, Decimal, Inexact, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbm import __version__, expected_adjusted_utility, run_expected
from mbm import cli
from mbm import report as report_module
from mbm.captable import parse_captable, to_instance
from mbm.cli import main
from mbm.properties import CORRUPTION_KINDS
from mbm.rational import decimal_approx, rational, rational_str
from mbm.suites import SUITES
import mutants
from conftest import SRC
from strategies import instances

DATA = os.path.join(os.path.dirname(__file__), "data")
WORKED = os.path.join(DATA, "worked.csv")
GOLDEN = os.path.join(DATA, "golden_run_expected.json")
GOLDEN_RUN = os.path.join(DATA, "golden_run.json")
GOLDEN_VERIFY = os.path.join(DATA, "golden_verify.json")
GOLDEN_WELFARE = os.path.join(DATA, "golden_welfare.json")
GOLDEN_CLI_TEXT = os.path.join(DATA, "golden_cli_text.json")


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


def test_run_matches_golden_output(capsys, monkeypatch):
    # exit code, stdout and stderr of json, csv and text reports, expected and
    # realized, with and without --check, on worked.csv and on decimal.csv
    # (decimal numerals, a zero share, --normalize), frozen before the report
    # rendered straight from the engine's outcome; and with --check on
    # large_fraction.csv (300 rows) and large_decimal.csv (120 rows, a zero
    # share, --normalize), frozen before the report and the oracles read the
    # outcome over common denominators
    with open(GOLDEN_RUN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert {case["argv"][-1] for case in golden} == {"json", "csv", "text"}
    monkeypatch.chdir(DATA)
    for case in golden:
        assert run_cli(capsys, *case["argv"]) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["argv"]


def test_approximations_ignore_the_callers_decimal_context(capsys, monkeypatch):
    # rounding down would print ...66 for 2/3, and a trapped Inexact would
    # raise on the first approximation
    cases = []
    for path, argv in (
        (GOLDEN_RUN, ["run", "--captable", "decimal.csv", "--mbar", "2", "--normalize",
                      "--expected", "--format", "json"]),
        (GOLDEN_WELFARE, ["welfare", "--n-list", "3..12", "--alpha-list", "all"]),
    ):
        with open(path, "r", encoding="utf-8") as fh:
            cases += [case for case in json.load(fh) if case["argv"] == argv]
    assert len(cases) == 2
    monkeypatch.chdir(DATA)
    with localcontext() as ctx:
        ctx.rounding = ROUND_DOWN
        ctx.traps[Inexact] = True
        assert decimal_approx(Fraction(2, 3)) == "0.66666666666666666667"
        for case in cases:
            assert run_cli(capsys, *case["argv"]) == (
                case["exit"], case["stdout"], case["stderr"]
            ), case["argv"]
    # nor do decimal.DefaultContext's exponent limits and traps, which a
    # context built from prec and rounding alone would copy
    monkeypatch.setattr(decimal.DefaultContext, "Emax", 100)
    assert decimal_approx(Fraction(10**5000, 3)) == "3.3333333333333333333E+4999"
    monkeypatch.setitem(decimal.DefaultContext.traps, Inexact, True)
    assert decimal_approx(Fraction(2, 3)) == "0.66666666666666666667"


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


def test_run_check_efficiency_cases_are_linear_in_n(capsys, tmp_path):
    # one comparison per agent but the reference owner, in each branch; the
    # pairwise reference makes 84,075 on this table
    n = 300
    rows = "".join(f"a{k},{k}/{n * (n + 1) // 2},{k}/7\n" for k in range(1, n + 1))
    path = tmp_path / "wide.csv"
    path.write_text("agent_id,share,bid\n" + rows, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "run", "--captable", str(path), "--mbar", "225", "--expected",
        "--check", "--format", "json",
    )
    assert code == 0
    checks = {c["property"]: c for c in json.loads(out)["checks"]}
    assert checks["pp-expost-efficiency"]["holds"]
    assert checks["pp-expost-efficiency"]["cases"] == 2 * (n - 1)


def exact(text):
    """A ``p/q`` field as a Fraction, without int's string-length limit."""
    p, _, q = text.partition("/")
    return Fraction(int(Decimal(p)), int(Decimal(q or "1")))


# shares 1/(10**900 + k) normalize to numerators and denominators of
# thousands of digits, past int's default 4,300-digit string limit
HUGE_ROWS = "".join(f"a{k},1/{10**900 + k},{k + 1}\n" for k in range(6))


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("check", [False, True], ids=["expected", "expected-check"])
def test_run_prints_values_past_the_int_string_limit(capsys, tmp_path, fmt, check):
    path = tmp_path / "huge.csv"
    path.write_text("agent_id,share,bid\n" + HUGE_ROWS, encoding="utf-8")
    argv = ["run", "--captable", str(path), "--mbar", "3", "--normalize",
            "--expected", "--format", fmt] + (["--check"] if check else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert max(len(token) for token in out.replace(",", " ").split()) > 4300
    if fmt == "json":
        report = json.loads(out)
        for branch in report["branches"]:
            agents = branch["agents"]
            assert sum(exact(a["final_share"]) for a in agents) == 1
            assert sum(exact(a["payment"]) for a in agents) == 0
        assert all(c["holds"] for c in report.get("checks", []))
    if fmt == "text" and check:
        assert "check pp-expost-efficiency: holds [10 cases]" in out


def test_huge_off_simplex_table_is_refused_with_every_digit(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("agent_id,share,bid\n" + HUGE_ROWS, encoding="utf-8")
    total = sum(Fraction(1, 10**900 + k) for k in range(6))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"error: shares sum to {total}, expected exactly 1\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300
    code, out, err = run_cli(capsys, "run", "--captable", str(path), "--mbar", "3")
    assert (code, out, err) == (2, "", want)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_run_makes_no_per_agent_rational(capsys, monkeypatch, fmt):
    # the twin of test_generated_values_start_on_integers: from the cell to
    # the byte, a valid run makes the same few rationals at n = 3 and n = 300
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    counts = []
    for table, m_bar in (("worked.csv", "2"), ("large_fraction.csv", "200")):
        argv = ["run", "--captable", os.path.join(DATA, table), "--mbar", m_bar,
                "--expected", "--check", "--format", fmt]
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted)
            assert main(argv) == 0
        capsys.readouterr()
        counts.append(len(made))
    # the price, the two branch probabilities and the four welfare values
    assert counts == [7, 7]


def test_every_golden_request_prints_through_the_integer_printer(capsys, monkeypatch):
    # mbm.rational's integer printer is the only path from a rational to
    # text: with Fraction's own str and format refusing, every golden request
    # still gives its golden exit code, stdout and stderr
    cases = load_cli_golden(monkeypatch)  # COLUMNS and the data directory
    for path in (GOLDEN_RUN, GOLDEN_VERIFY, GOLDEN_WELFARE):
        with open(path, encoding="utf-8") as fh:
            cases += json.load(fh)

    def refuse(*_):
        raise AssertionError("a Fraction printed itself")

    monkeypatch.setattr(Fraction, "__str__", refuse)
    monkeypatch.setattr(Fraction, "__format__", refuse)
    for case in cases:
        assert run_or_exit(capsys, case["argv"]) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["argv"]


def test_run_accepts_a_byte_order_mark(capsys, tmp_path):
    # the same file name in two directories: the report prints the name
    plain, marked = tmp_path / "plain" / "table.csv", tmp_path / "marked" / "table.csv"
    plain.parent.mkdir()
    marked.parent.mkdir()
    text = "agent_id,share,bid\na,1/2,10\nb,3/10,5\nc,1/5,2\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want = run_cli(capsys, "run", "--captable", str(plain), "--mbar", "2", "--expected")
    got = run_cli(capsys, "run", "--captable", str(marked), "--mbar", "2", "--expected")
    assert want[0] == 0 and got[1:] == want[1:]


@settings(max_examples=40)
@given(instance=instances(max_n=8))
def test_run_json_round_trips_a_random_cap_table(instance):
    initial, profile, config = instance
    rows = "".join(
        f"a{j},{rational_str(s)},{rational_str(b)}\n"
        for j, (s, b) in enumerate(zip(initial.shares, profile.bids))
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("agent_id,share,bid\n" + rows)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", "--captable", path, "--mbar", str(config.m_bar),
                         "--expected", "--format", "json"])
    assert code == 0
    report = json.loads(out.getvalue())
    expected = run_expected(initial, profile, config)
    assert rational(report["price"]) == expected.high_branch.price
    for section, branch in zip(report["branches"], expected.branches):
        assert rational(section["probability"]) == branch.branch_probability
        final = branch.final_allocation
        for j, agent in enumerate(section["agents"]):
            assert rational(agent["bid"]) == profile.bids[j]
            assert rational(agent["initial_share"]) == initial.shares[j]
            assert rational(agent["final_share"]) == final.shares[j]
            assert rational(agent["payment"]) == final.money[j] - initial.money[j]
    utilities = [
        expected_adjusted_utility(initial, expected, profile, j) for j in range(config.n)
    ]
    assert [rational(v) for v in report["expected_adjusted_utility"].values()] == utilities


# a (no stake, bid 4) outbids owner b; in the high branch she buys and ends
# at 0 / (1/6) = 0, which keeps her proportion
ZERO_STAKE_TABLE = "agent_id,share,bid\na,0,4\nb,1/6,3\nc,0,2\nd,5/6,1\n"


def printed_expected_utilities(fmt: str, out: str) -> dict:
    """Agent id -> the expected adjusted utility a report prints."""
    if fmt == "json":
        return json.loads(out)["expected_adjusted_utility"]
    if fmt == "csv":
        printed: dict = {}
        body = [line for line in out.splitlines() if not line.startswith("#")]
        for row in csv.DictReader(body):
            value = row["expected_adjusted_utility"]
            # every branch's row of an agent repeats the same value
            assert printed.setdefault(row["agent_id"], value) == value
        return printed
    prefix = "expected adjusted utility: "
    line = next(line for line in out.splitlines() if line.startswith(prefix))
    return dict(item.split("=") for item in line[len(prefix):].split(", "))


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "table, m_bar, flags",
    [
        ("worked.csv", 2, ()),
        ("decimal.csv", 2, ("--normalize",)),
        ("large_fraction.csv", 200, ()),
        ("large_decimal.csv", 60, ("--normalize",)),
        (None, 3, ()),
    ],
)
def test_run_prints_the_outcomes_expected_utilities(capsys, tmp_path, table, m_bar, flags, fmt):
    # the report takes them from the scorer, not off the outcome: hold every
    # printed value to expected_adjusted_utility on run_expected's outcome
    if table is None:
        path = tmp_path / "zero.csv"
        path.write_text(ZERO_STAKE_TABLE, encoding="utf-8")
    else:
        path = os.path.join(DATA, table)
    code, out, err = run_cli(
        capsys, "run", "--captable", str(path), "--mbar", str(m_bar), *flags,
        "--expected", "--check", "--format", fmt,
    )
    assert (code, err) == (0, "")
    with open(path, "r", encoding="utf-8") as fh:
        records = parse_captable(fh.read(), normalize=bool(flags))
    initial, profile, config = to_instance(records, m_bar=m_bar)
    expected = run_expected(initial, profile, config)
    printed = printed_expected_utilities(fmt, out)
    assert list(printed) == [r.agent_id for r in records]
    for j, value in enumerate(printed.values()):
        assert rational(value) == expected_adjusted_utility(initial, expected, profile, j)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_run_check_holds_when_a_zero_stake_agent_outbids_an_owner(capsys, tmp_path, fmt):
    path = tmp_path / "zero.csv"
    path.write_text(ZERO_STAKE_TABLE, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "run", "--captable", str(path), "--mbar", "3", "--expected", "--check",
        "--format", fmt,
    )
    # exit 0 means every check holds; csv prints no verdicts
    assert (code, err) == (0, "")
    if fmt == "json":
        checks = json.loads(out)["checks"]
        assert [c["holds"] for c in checks] == [True] * 3
        assert {c["property"] for c in checks} == {
            "budget-balance", "individual-rationality", "pp-expost-efficiency",
        }
    elif fmt == "text":
        verdicts = [line for line in out.splitlines() if line.startswith("check ")]
        assert len(verdicts) == 3
        assert all(": holds [" in line for line in verdicts), verdicts
        assert "check pp-expost-efficiency: holds [6 cases]" in verdicts


def test_run_check_kills_the_utilities_money_sign_mutant(tmp_path, subprocess_env):
    # the printed expected utilities come from the scorer, which the mutant
    # leaves alone; individual rationality reads each branch through
    # core._utilities and must still catch it
    mutant = next(m for m in mutants.ENGINE_MUTANTS if m[0].startswith("_utilities"))
    package = tmp_path / "mbm"
    shutil.copytree(os.path.join(SRC, "mbm"), package)
    mutants.apply(package, mutant)
    env = dict(subprocess_env)
    env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), env["PYTHONPATH"]))
    proc = subprocess.run(
        [sys.executable, "-m", "mbm", "run", "--captable", WORKED, "--mbar", "2",
         "--expected", "--check", "--format", "text"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert "check individual-rationality: VIOLATED" in proc.stdout


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


@pytest.mark.parametrize(
    "rows, argv, message",
    [
        ("a,1/2,10\nb,zz,5\nc,1/5,2\n", ["run", "--mbar", "2"],
         "error: row 3, column 2: not a number: 'zz'"),
        ("\na,1/2,10\n\nb,3/10,zz\nc,1/5,2\n", ["run", "--mbar", "2"],
         "error: row 5, column 3: not a number: 'zz'"),
        ("\na,1/2,10\n\nb,3/10,5\nc,1/5\n", ["run", "--mbar", "2"],
         "error: row 6: expected 3 fields, got 2"),
        ("a,1/2,10\na,3/10,5\nc,1/5,2\n", ["run", "--mbar", "2"],
         "error: agent_id 'a' appears more than once"),
        ("a,1/2,5\nb,3/10,5\nc,1/5,2\n", ["run", "--mbar", "2"],
         "error: tied bids between agent pairs: (0, 1)"),
        ("a,1/2,10\n,3/10,5\nc,1/5,2\n", ["run", "--mbar", "2"],
         "error: row 3, column 1: empty agent_id"),
        ("a,0,10\nb,0,5\nc,0,2\n", ["run", "--mbar", "2", "--normalize"],
         "error: shares sum to 0, expected exactly 1"),
        (None, ["verify", "--suite", "budget", "--n-range", "5..3"],
         "error: --n-range: empty range '5..3'"),
        (None, ["verify", "--suite", "budget", "--instances", "20", "--n-range", "2..3"],
         "error: need more than 2 agents, got n_range 2..3"),
        (None, ["verify", "--suite", "budget", "--instances", "3", "--n-range", "2..3"],
         "error: need more than 2 agents, got n_range 2..3"),
        (None, ["verify", "--suite", "budget", "--instances", "-3"],
         "error: instance count must not be negative, got -3"),
        (None, ["verify", "--suite", "group-sp", "--instances", "1", "--n-range", "3..3",
                "--budget", "-1"],
         "error: search budget must not be negative, got -1"),
        ("a,1e-5000,3\nb,1/2,2\nc,1/4,1\n",
         ["run", "--mbar", "2", "--normalize", "--expected", "--format", "json"],
         "error: row 2, column 2: exponent -5000 outside -1000..1000"),
        ("a,1/2,10\nb,3/10," + "9" * 1001 + "\nc,1/5,2\n", ["run", "--mbar", "2"],
         "error: row 3, column 3: numeral longer than 1000 characters"),
        ("a,1/2,10\nb,3/10,5\nc,1/5," + "9" * 140_000 + "\n", ["run", "--mbar", "2"],
         "error: row 4: field larger than field limit (131072)"),
        (None, ["verify", "--suite", "budget", "--n-range", "3..x"],
         "error: --n-range: invalid literal for int() with base 10: 'x'"),
        (None, ["verify", "--suite", "budget", "--n-range", "3-5"],
         "error: --n-range: expected A..B, got '3-5'"),
        (None, ["welfare", "--n-list", "4,five", "--alpha-list", "all"],
         "error: --n-list: invalid literal for int() with base 10: 'five'"),
        (None, ["welfare", "--n-list", "4", "--alpha-list", "1/0"],
         "error: --alpha-list: not a rational literal: '1/0'"),
    ],
    ids=[
        "malformed-cell", "malformed-cell-after-blank-lines", "short-row-after-blank-lines",
        "duplicate-id", "tied-bids", "empty-agent-id", "normalize-zero-shares",
        "empty-n-range", "n-range-below-3", "n-range-below-3-few-instances",
        "negative-instance-count", "negative-budget",
        "numeral-exponent", "numeral-length", "field-over-csv-limit", "n-range-not-int",
        "n-range-no-dots", "n-list-not-int", "alpha-not-rational",
    ],
)
def test_validation_errors_exit_2(capsys, tmp_path, rows, argv, message):
    if rows is not None:
        path = tmp_path / "table.csv"
        path.write_text("agent_id,share,bid\n" + rows, encoding="utf-8")
        argv = argv + ["--captable", str(path)]
    assert run_cli(capsys, *argv) == (2, "", message + "\n")


def test_bad_seed_variable_and_undecodable_table_exit_2(capsys, tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    path.write_bytes(b"agent_id,share,bid\na,1/2,10\nb,3/10,5\nc,1/5,\xff\n")
    assert run_cli(capsys, "run", "--captable", str(path), "--mbar", "2") == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 43: "
        "invalid start byte\n",
    )
    monkeypatch.setenv("MBM_SEED", "abc")
    assert run_cli(capsys, "verify", "--suite", "budget", "--instances", "2") == (
        2, "", "error: MBM_SEED: invalid literal for int() with base 10: 'abc'\n"
    )


def test_internal_value_error_is_not_a_validation_error(capsys, monkeypatch):
    # a bug inside a command must surface as exit 70, not exit 2 as if the
    # input were bad
    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "welfare_sweep", broken)
    assert run_cli(capsys, "welfare", "--n-list", "4", "--alpha-list", "all") == (
        70, "", "internal error: ValueError('internal')\n"
    )


@pytest.mark.parametrize(
    "target, name",
    [(cli, "check_individual_rationality"), (report_module.RunReport, "to_csv")],
    ids=["oracle", "renderer"],
)
def test_a_crash_is_not_a_verdict(capsys, monkeypatch, target, name):
    # a TypeError inside an oracle or a renderer exits 70 (EX_SOFTWARE) with
    # one stderr line and no traceback, never 1, the code for a violation
    def broken(*args, **kwargs):
        raise TypeError("boom\nsecond line")

    monkeypatch.setattr(target, name, broken)
    code, out, err = run_cli(
        capsys, "run", "--captable", WORKED, "--mbar", "2", "--check", "--format", "csv"
    )
    assert (code, out) == (70, "")
    assert err == "internal error: TypeError('boom\\nsecond line')\n"
    assert "Traceback" not in err


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


def test_verify_deviation_suites_match_golden_output(capsys):
    # exit code, stdout and stderr of the sp and group-sp suites, on the real
    # engine and under every injected defect, frozen from earlier versions of
    # both searches: every verdict, cases count and witness byte for byte
    with open(GOLDEN_VERIFY, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert {"sp", "group-sp"} == {case["argv"][2] for case in golden}
    for case in golden:
        assert run_cli(capsys, *case["argv"]) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["argv"]


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


def test_verify_group_sp_refuses_forty_agents_before_enumerating(capsys):
    # 2**40 coalitions: the refusal must come from the product formula alone
    code, out, err = run_cli(
        capsys, "verify", "--suite", "group-sp", "--instances", "1", "--n-range", "40..40",
    )
    assert (code, out) == (4, "")
    assert err == (
        "search budget exceeded: coalition search needs 533868712711247299184514523498"
        "38784915966959389108721854556950052137037192645370560 evaluations, "
        "cap is 1000000\n"
    )


def verify_on_mutants(tmp_path, subprocess_env, suite):
    """Seconds that ``verify --suite suite`` took over the suite's mutants, one
    copy of the package each; every run must exit 1 with every instance violated."""
    argv = ["verify", "--suite", suite, "--instances", "20", "--seed", "7",
            "--n-range", "3..4"]
    elapsed = 0.0
    for k, mutant in enumerate(mutants.MUTANTS[suite]):
        package = tmp_path / str(k) / "mbm"
        shutil.copytree(os.path.join(SRC, "mbm"), package)
        mutants.apply(package, mutant)
        env = dict(subprocess_env)
        env["PYTHONPATH"] = os.pathsep.join((str(package.parent), env["PYTHONPATH"]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mbm", *argv], capture_output=True, text=True, env=env
        )
        elapsed += time.perf_counter() - start
        assert proc.returncode == 1, (mutant[0], proc.stderr)
        assert proc.stderr == "20 violation(s) found\n", mutant[0]
    return elapsed


def test_group_sp_suite_kills_the_engine_mutants(tmp_path, subprocess_env):
    # each mutant moves the scorer and the engine's side of the tie apart (the
    # engine, or core._utilities reading it); the suite ties the two on every
    # instance, at the true values and at values moved off the bids, where a
    # threshold agent scored as a buyer shows. All five runs together stay
    # within a few seconds
    elapsed = verify_on_mutants(tmp_path, subprocess_env, "group-sp")
    assert elapsed < 5.0, elapsed


def test_sp_suite_kills_the_engine_mutants(tmp_path, subprocess_env):
    # the same five mutants: before any agent deviates, sp ties the scorer to
    # run_expected where agent 0 bids her value against the fixed others,
    # read at the true values and again at values moved off the bids
    elapsed = verify_on_mutants(tmp_path, subprocess_env, "sp")
    assert elapsed < 5.0, elapsed


def test_sp_and_group_sp_kill_the_class_walk_mutant(tmp_path, subprocess_env):
    # H without the threshold agent's share overpays every buyer in the class
    # walk alone: the tie before any coalition scores through
    # core._lone's readout and passes, so every violation is a deviation
    # found inside the walk, which the engine contradicts when the witness
    # is replayed. sp sees it wherever some agent truthfully buys; group-sp
    # needs two buyers, so at m_bar 2 it holds
    package = tmp_path / "mbm"
    shutil.copytree(os.path.join(SRC, "mbm"), package)
    mutants.apply(package, mutants.CLASS_MUTANT)
    env = dict(subprocess_env)
    env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), env["PYTHONPATH"]))
    found = {}
    for suite in ("sp", "group-sp"):
        proc = subprocess.run(
            [sys.executable, "-m", "mbm", "verify", "--suite", suite, "--instances", "20",
             "--seed", "7", "--n-range", "3..4"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1, (suite, proc.stderr)
        witnesses = [v["witness"] for v in json.loads(proc.stdout) if not v["holds"]]
        assert all("the scorer gives" in w and "values" not in w for w in witnesses), suite
        found[suite] = len(witnesses)
    assert found == {"sp": 19, "group-sp": 7}


def test_monotone_suite_kills_the_readout_mutant(tmp_path, subprocess_env):
    # the mutant reads the price one rank down, which is monotone as well; the
    # suite ties every agent's readout, at her own bid, to run_expected at the
    # truthful bids of every instance
    elapsed = verify_on_mutants(tmp_path, subprocess_env, "monotone")
    assert elapsed < 3.0, elapsed


def test_budget_suite_kills_the_mass_mutant(tmp_path, subprocess_env):
    # buyer masses one rank too deep: the engine's buyer shares no longer sum
    # to 1, and the welfare sweep's engine column leaves the closed form; the
    # scorer and the readout share the masses, so sp, group-sp and monotone
    # cannot see it
    elapsed = verify_on_mutants(tmp_path, subprocess_env, "budget")
    elapsed += welfare_on_mutant(tmp_path / "welfare", subprocess_env, mutants.MASS_MUTANT)
    assert elapsed < 5.0, elapsed


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


def test_welfare_matches_golden_output(capsys):
    # exit code, stdout and stderr of full, filtered, repeated, large-n and
    # rejected sweeps, frozen before the sweep shared one kernel per n
    with open(GOLDEN_WELFARE, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert {case["argv"][0] for case in golden} == {"welfare"}
    for case in golden:
        assert run_cli(capsys, *case["argv"]) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["argv"]


def test_welfare_makes_no_rational_per_row(capsys, monkeypatch):
    # the twin of test_run_makes_no_per_agent_rational: a row is rendered off
    # its integer form, so a full sweep makes no rational at all and an
    # explicit list one per token, however many n it spans
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    counts = []
    for n_list, alpha_list in (
        ("4", "all"), ("4..103", "all"), ("2..60", "1/2,1/3,0.25,3/4,2/3"), ("10,1000", "1/2"),
    ):
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted)
            assert main(["welfare", "--n-list", n_list, "--alpha-list", alpha_list]) == 0
        capsys.readouterr()
        counts.append(len(made))
    assert counts == [0, 0, 5, 1]


def test_welfare_large_n_limit_gap(capsys):
    _, out, _ = run_cli(capsys, "welfare", "--n-list", "1000", "--alpha-list", "1/2")
    fields = out.strip().splitlines()[1].split(",")
    assert fields[5] == "3/4000"  # closed form minus (2 - alpha)/2


def welfare_on_mutant(tmp_path, subprocess_env, mutant):
    """Seconds that ``welfare --n-list 4..12`` took on a copy of the package
    with ``mutant`` applied; it must exit 1 with all 54 rows disagreeing."""
    package = tmp_path / "mbm"
    shutil.copytree(os.path.join(SRC, "mbm"), package)
    mutants.apply(package, mutant)
    env = dict(subprocess_env)
    env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), env["PYTHONPATH"]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mbm", "welfare", "--n-list", "4..12", "--alpha-list", "all"],
        capture_output=True, text=True, env=env,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, (mutant[0], proc.stderr)
    assert proc.stderr == "54 row(s) where the closed form differs from the engine\n"
    assert len(proc.stdout.splitlines()) == 1 + 54
    return elapsed


def test_welfare_kills_the_branch_mutant(tmp_path, subprocess_env):
    # P(high) read as the low branch's buyer mass moves the engine column off
    # the closed form on every row, and the sweep says so by its exit code
    elapsed = welfare_on_mutant(tmp_path, subprocess_env, mutants.ENGINE_MUTANTS[0])
    assert elapsed < 5.0, elapsed


# --- parsing -------------------------------------------------------------------


def run_or_exit(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_cli_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(DATA)
    with open(GOLDEN_CLI_TEXT, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_help_usage_and_error_texts_match_golden(capsys, monkeypatch):
    # exit code, stdout and stderr of the root and per-command help, usage
    # errors (missing, mistyped and unknown values, abbreviations, an
    # ambiguous prefix), stray arguments, "--" and a stray --version, frozen
    # while every request was parsed by the full parser tree
    for case in load_cli_golden(monkeypatch):
        assert run_or_exit(capsys, case["argv"]) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["argv"]


def full_tree(argv):
    """The namespace ``_build_parser().parse_args(argv)`` returns, or None
    where it exits with help, version or an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


def workload_requests():
    """One argv of every form the benchmark sends: each run format and mode,
    with and without --normalize, each verify suite with and without each
    injected defect, and welfare."""
    for fmt in ("json", "csv", "text"):
        for mode in (["--expected"], ["--seed", "1234567"], ["--expected", "--check"]):
            for normalize in ([], ["--normalize"]):
                yield ["run", "--captable", WORKED, "--mbar", "2", "--format", fmt,
                       *normalize, *mode]
    for suite in SUITES:
        for defect in (None,) + CORRUPTION_KINDS:
            yield ["verify", "--suite", suite, "--instances", "1", "--seed", "2063472",
                   "--n-range", "3..4"] + (["--inject-defect", defect] if defect else [])
    yield ["welfare", "--n-list", "4", "--alpha-list", "all"]


def test_valid_requests_never_build_the_full_parser(capsys, monkeypatch):
    forms = [(argv, full_tree(argv)) for argv in workload_requests()]
    assert all(namespace is not None for _, namespace in forms)

    def refuse(*args, **kwargs):
        raise AssertionError("an ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run_cli(capsys, "run", "--captable", WORKED, "--mbar", "2")[0] == 0
    assert run_cli(capsys, "verify", "--suite", "sp", "--instances", "2")[0] == 0
    assert run_cli(capsys, "welfare", "--n-list", "4", "--alpha-list", "all")[0] == 0
    for argv, namespace in forms:
        assert cli._read(argv) == namespace, argv
    assert not any(isinstance(v, argparse.ArgumentParser) for v in vars(cli).values())


# values a flag may meet besides well-formed ones: negative numbers, a lone
# "-", flags, an empty string, and text that int() takes although it is no
# plain numeral (a leading space, a sign, an underscore, an Arabic-Indic three)
ODD_VALUES = ("-3", "-", "--", "-h", "--out", "", " 7", "+5", "5_0", "\u0663", "bogus", "1e3")
STRAY_TOKENS = ("--", "-h", "--help", "--version", "extra", "run", "--bogus", "--n")


@st.composite
def command_lines(draw):
    """A command, its options in any order, each with an ordinary or odd value
    and spelled whole, abbreviated or as ``--flag=value``, some left out, and
    stray tokens, repeats and other commands' flags put in anywhere."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[name][2]
    argv = []
    for flag, kwargs in draw(st.permutations(options)):
        if draw(st.booleans()) and (not kwargs.get("required") or draw(st.booleans())):
            continue
        spelling = draw(st.sampled_from(("whole",) * 6 + ("prefix", "equals")))
        if kwargs.get("action") == "store_true":
            argv.append(flag if spelling == "whole" else flag[: draw(st.integers(3, len(flag)))])
            continue
        ordinary = kwargs.get("choices") or (
            ("3", "0", "12") if "type" in kwargs else ("worked.csv", "3..4", "all")
        )
        value = draw(st.one_of(st.sampled_from(ordinary), st.sampled_from(ODD_VALUES)))
        if spelling == "equals":
            argv.append(f"{flag}={value}")
        else:
            if spelling == "prefix":
                flag = flag[: draw(st.integers(3, len(flag)))]
            argv += [flag, value]
    others = [flag for _, _, opts in cli._COMMANDS.values() for flag, _ in opts]
    for token in draw(st.lists(st.sampled_from(STRAY_TOKENS + tuple(others)), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return [name] + argv


@settings(max_examples=500)
@given(argv=command_lines())
def test_reading_a_request_off_the_table_equals_the_full_tree(argv):
    read = cli._read(argv)
    if read is not None:
        full = full_tree(argv)
        assert full is not None and vars(read) == vars(full)


def test_help_unknown_commands_and_stray_arguments_take_the_full_parser(
    capsys, monkeypatch
):
    golden = {tuple(case["argv"]): case for case in load_cli_golden(monkeypatch)}
    build, built = cli._build_parser, []

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    run = ("run", "--captable", "worked.csv", "--mbar", "2")
    for argv in [
        (),
        ("--help",),
        ("bogus",),
        run[:3],
        run + ("--format", "xml"),
        run + ("extra",),
        ("--foo",) + run,
    ]:
        case = golden[argv]
        assert run_or_exit(capsys, argv) == (
            case["exit"], case["stdout"], case["stderr"]
        ), argv
        assert len(built) == 1, argv
        built.clear()


# --- version -------------------------------------------------------------------


def test_version_names_package_version_and_rational_backend(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == f"mbm {__version__} (fractions rational backend)\n"


# --- module entry point ---------------------------------------------------------


def test_python_dash_m_entry_point(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "mbm", "run", "--captable", WORKED, "--mbar", "2",
         "--expected", "--format", "json"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["price"] == "5"
