"""Rational serialization round-trips and report structure."""

import json
import random

from hypothesis import given
from hypothesis import strategies as st

from mbm import Allocation, BidProfile, MbmConfig, run_expected
from mbm.captable import CapTableRecord, parse_captable, to_instance
from mbm.rational import Rational as Q, decimal_approx, rational, rational_str
from mbm.report import build_run_report
from mbm.suites import generate_suite

WORKED = "agent_id,share,bid\na,0.5,10\nb,0.3,5\nc,0.2,2\n"


@given(num=st.integers(-(10**12), 10**12), den=st.integers(1, 10**12))
def test_rational_text_round_trip(num, den):
    q = Q(num, den)
    assert rational(rational_str(q)) == q


def test_rational_str_is_fraction_not_decimal():
    assert rational_str(Q(3, 10)) == "3/10"
    assert rational_str(Q(5)) == "5"
    assert rational_str(Q(-5, 10)) == "-1/2"


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
    keys = list(report.to_dict().keys())
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
            (section,) = report.branches
            assert section.owner_count == drawn.realized_m
            assert section.label == ("high" if hit_high else "low")
            assert [a.final_share for a in section.agents] == list(
                drawn.final_allocation.shares
            )
