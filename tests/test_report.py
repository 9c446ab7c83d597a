"""Rational serialization round-trips and report structure."""

import json
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbm import Allocation, BidProfile, MbmConfig, run_expected
from mbm.captable import CapTableRecord, parse_captable, to_instance
from mbm.rational import Rational as Q, decimal_approx, ratio_str, rational, rational_str
from mbm.cli import main
from mbm.properties import (
    CORRUPTION_KINDS,
    check_budget_balance,
    check_individual_rationality,
    check_pp_expost_efficiency,
    corrupted_engine,
)
from mbm.report import build_run_report
from mbm.suites import SUITES, generate_suite
from strategies import instances

WORKED = "agent_id,share,bid\na,0.5,10\nb,0.3,5\nc,0.2,2\n"
DATA = os.path.join(os.path.dirname(__file__), "data")


@given(num=st.integers(-(10**12), 10**12), den=st.integers(1, 10**12))
def test_rational_text_round_trip(num, den):
    q = Q(num, den)
    assert rational(rational_str(q)) == q


def test_rational_str_is_fraction_not_decimal():
    assert rational_str(Q(3, 10)) == "3/10"
    assert rational_str(Q(5)) == "5"
    assert rational_str(Q(-5, 10)) == "-1/2"


def test_rational_str_past_the_int_string_limit():
    # str() refuses integers of more than 4,300 digits by default
    big = 10**5000 + 1
    assert rational_str(Q(-big, 3)) == "-1" + "0" * 4999 + "1/3"
    assert rational_str(Q(big)) == "1" + "0" * 4999 + "1"
    assert rational_str(Q(3, big)) == "3/1" + "0" * 4999 + "1"
    assert decimal_approx(Q(big, 3)) == "3.3333333333333333333E+4999"


@given(num=st.integers(-(10**12), 10**12), den=st.integers(1, 10**12))
def test_ratio_str_renders_the_reduced_rational(num, den):
    assert ratio_str(num, den) == rational_str(Q(num, den))


def test_ratio_str_past_the_int_string_limit():
    big = 10**5000 + 1
    for p, q in ((-big, 3), (big, 1), (3, big), (6 * big, 4), (2 * big, 2 * big + 2)):
        assert ratio_str(p, q) == rational_str(Q(p, q))
    assert ratio_str(-6 * big, 9) == "-2" + "0" * 4999 + "2/3"


def test_decimal_approx_20_significant_digits():
    assert decimal_approx(Q(1, 3)) == "0.33333333333333333333"
    assert decimal_approx(Q(0)) == "0"
    assert decimal_approx(Q(33, 40)) == "0.825"


def test_report_round_trip_recovers_exact_rationals():
    records = parse_captable(WORKED)
    initial, profile, config = to_instance(records, m_bar=2)
    report = build_run_report(
        records, initial, profile, config, run_expected(initial, profile, config),
        mode="expected", seed=None, captable_name="worked.csv",
    )
    parsed = json.loads(report.to_json())
    high = parsed["branches"][0]
    assert [rational(a["final_share"]) for a in high["agents"]] == [
        Q(5, 8), Q(3, 8), Q(0),
    ]
    assert rational(parsed["welfare"]["expected"]) == Q(17, 2)
    assert sum(rational(a["payment"]) for a in high["agents"]) == 0


def test_report_key_order_is_stable():
    records = parse_captable(WORKED)
    initial, profile, config = to_instance(records, m_bar=2)
    report = build_run_report(
        records, initial, profile, config, run_expected(initial, profile, config),
        mode="expected", seed=None, captable_name="worked.csv",
    )
    keys = list(json.loads(report.to_json()).keys())
    assert keys == [
        "captable", "n", "m_bar", "mode", "seed", "agents", "ranking",
        "price", "price_approx", "p_high", "p_high_approx", "p_low",
        "p_low_approx", "branches", "expected_adjusted_utility", "welfare",
    ]


def test_realized_report_lists_the_drawn_branch():
    # equal shares at n = 6, m_bar = 3: the kernel's P(high) is 3/6, drawn as
    # 1/2 (a power-of-two factor such as 2/4 would draw the same random bits)
    equal = (
        Allocation.from_shares((Q(1, 6),) * 6),
        BidProfile((Q(10), Q(9), Q(8), Q(7), Q(6), Q(5))),
        MbmConfig(6, 3),
    )
    for initial, profile, config in generate_suite(20, seed=31, n_range=(3, 8)) + [equal]:
        records = [
            CapTableRecord(f"a{i}", share, bid)
            for i, (share, bid) in enumerate(zip(initial.shares, profile.bids))
        ]
        expected = run_expected(initial, profile, config)
        p_high = expected.high_branch.branch_probability
        for seed in range(50):
            hit_high = random.Random(seed).randrange(p_high.denominator) < p_high.numerator
            drawn = expected.high_branch if hit_high else expected.low_branch
            report = build_run_report(
                records, initial, profile, config, expected,
                mode="realized", seed=seed, captable_name="drawn.csv",
            )
            (shown,) = report.branches
            assert shown is drawn
            (section,) = json.loads(report.to_json())["branches"]
            assert section["owner_count"] == drawn.realized_m
            assert section["branch"] == ("high" if hit_high else "low")
            assert [rational(a["final_share"]) for a in section["agents"]] == list(
                drawn.final_allocation.shares
            )


# --- indented JSON ------------------------------------------------------------

_TEXT = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "é", "\u2028", "\ud800", "😀", "a\"b\\c"]
)
# seeds about the default 4,300-digit limit, past which json.dumps refuses an int
_HUGE = st.builds(lambda k: 10**k, st.integers(4295, 4305))


def _stdlib_layout(out):
    # what json.dumps(indent=2) writes for the value that ``out`` parses to
    return json.dumps(json.loads(out), indent=2) + "\n"


@given(
    instance=instances(),
    data=st.data(),
    name=_TEXT,
    seed=st.none() | st.integers(0, 2**64) | _HUGE,
    checked_on=st.sampled_from(("unchecked", "real") + CORRUPTION_KINDS),
)
def test_indented_writer_equals_json_dumps(instance, data, name, seed, checked_on):
    # ids with quotes, backslashes, control characters, non-ASCII, U+2028 and a
    # lone surrogate; realized mode when a seed is drawn; checks on the real
    # engine, or violated ones (with witness text) under a corrupted engine
    initial, profile, config = instance
    ids = data.draw(st.lists(_TEXT, min_size=config.n, max_size=config.n))
    records = [CapTableRecord(agent_id, share) for agent_id, share in zip(ids, initial.shares)]
    expected = run_expected(initial, profile, config)
    checks = ()
    if checked_on != "unchecked":
        engine = run_expected if checked_on == "real" else corrupted_engine(checked_on)
        checks = [
            check(initial, profile, config, engine=engine)
            for check in (check_budget_balance, check_individual_rationality,
                          check_pp_expost_efficiency)
        ]
    mode = "expected" if seed is None else "realized"
    report = build_run_report(
        records, initial, profile, config, expected, mode, seed, name, checks=checks
    )
    try:
        json.dumps(seed)
    except ValueError:
        with pytest.raises(ValueError):
            report.to_json()
        return
    out = report.to_json()
    assert out == _stdlib_layout(out)


def test_verify_output_equals_json_dumps(capsys):
    # every suite under the real engine and every injected defect, on a few seeds
    witnesses = 0
    for defect in (None,) + CORRUPTION_KINDS:
        for seed in (1, 2, 3):
            argv = ["verify", "--suite", "all", "--instances", "2", "--seed", str(seed),
                    "--n-range", "3..5"]
            if defect:
                argv += ["--inject-defect", defect]
            assert main(argv) in (0, 1)
            out = capsys.readouterr().out
            verdicts = json.loads(out)
            assert {v["suite"] for v in verdicts} == set(SUITES)
            assert out == _stdlib_layout(out)
            witnesses += sum(v["witness"] is not None for v in verdicts)
    assert witnesses
    assert main(["verify", "--suite", "sp", "--instances", "0"]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_indented_writer_equals_json_dumps_on_the_largest_report(capsys):
    argv = ["run", "--captable", os.path.join(DATA, "large_fraction.csv"), "--mbar", "200",
            "--expected", "--check", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert len(report["branches"][0]["agents"]) == 300 and len(report["checks"]) == 3
    assert out == json.dumps(report, indent=2) + "\n"
