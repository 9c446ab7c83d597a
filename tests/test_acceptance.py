"""Acceptance criteria for the whole artifact.

Every criterion runs at its stated tolerance (exact rational equality
unless noted) and prints one pass/fail line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines. Suites are seeded, so every run checks the same
instances.
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

from mbm import (
    Allocation,
    BidProfile,
    MbmConfig,
    check_budget_balance,
    check_individual_rationality,
    check_pp_expost_efficiency,
    check_price_monotonicity,
    check_strategyproofness,
    check_weak_group_strategyproofness,
    efficiency_loss_instance,
    expected_adjusted_utility,
    expected_mbm_welfare,
    rational,
    realize,
    run_expected,
    social_welfare,
    welfare_report,
    welfare_sweep,
)
from mbm.cli import main
from mbm.instances import perturbed_profile
from mbm.rational import Rational as Q, decimal_approx
from mbm.suites import generate_suite
from refinement import refined_sp_holds, walk_verdicts

import mutants
from conftest import SRC, Timer

import os

SUITE_SEED = 20240817
DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def suite_1000():
    return generate_suite(1000, seed=SUITE_SEED, n_range=(3, 8))


def test_criterion_01_budget_balance_exact(suite_1000):
    with Timer(1, "budget balance, exact, both branches", 5) as t:
        ok = all(check_budget_balance(*inst).holds for inst in suite_1000)
        t.finish(ok, f"{len(suite_1000)} instances, n in 3..8")


def test_criterion_02_individual_rationality_exact(suite_1000):
    with Timer(2, "individual rationality, exact, per branch", 5) as t:
        ok = all(check_individual_rationality(*inst).holds for inst in suite_1000)
        t.finish(ok, f"{len(suite_1000)} instances")


def test_criterion_03_threshold_agent_zero_expected_utility(suite_1000):
    with Timer(3, "threshold agent expected utility exactly zero", 5) as t:
        ok = True
        for initial, profile, config in suite_1000:
            expected = run_expected(initial, profile, config)
            agent = expected.high_branch.order[config.m_bar - 1]
            if expected_adjusted_utility(initial, expected, profile, agent) != 0:
                ok = False
                break
        t.finish(ok, f"{len(suite_1000)} instances")


def test_criterion_04_strategyproofness_grid_and_refinement():
    with Timer(4, "no profitable grid deviation; verdicts refinement-stable", 120) as t:
        instances = generate_suite(200, seed=SUITE_SEED + 1, n_range=(3, 6))
        rng = random.Random(SUITE_SEED + 2)
        others_profiles = [perturbed_profile(p, rng) for _, p, _ in instances]
        ok = True
        for (initial, profile, config), others in zip(instances, others_profiles):
            report = check_strategyproofness(
                initial, profile, config, others_profile=others
            )
            if not report.holds:
                ok = False
                break
        refined_stable = True
        if ok:
            for (initial, profile, config), others in list(
                zip(instances, others_profiles)
            )[:100]:
                if not refined_sp_holds(initial, profile, config, others):
                    refined_stable = False
                    break
        t.finish(
            ok and refined_stable,
            "200 instances, arbitrary non-truthful others; 100 refined 10x",
        )


def weak_gain_instance():
    initial = Allocation.from_shares((Q(1, 4),) * 4)
    profile = BidProfile((Q(8), Q(6), Q(4), Q(2)))
    return initial, profile, MbmConfig(4, 2)


def test_criterion_05_weak_group_strategyproofness():
    with Timer(5, "no all-strict coalition gain; weak gain not flagged", 300) as t:
        instances = generate_suite(50, seed=SUITE_SEED + 3, n_range=(3, 4))
        ok = all(
            check_weak_group_strategyproofness(*inst).holds for inst in instances
        )

        # crafted weak-gain scenario: the threshold agent nudges the price up,
        # sellers strictly gain, she stays at zero; must NOT be flagged
        initial, profile, config = weak_gain_instance()
        truthful = run_expected(initial, profile, config)
        nudged = run_expected(initial, profile.replace_bid(1, Q(7)), config)
        weak_gain_present = (
            expected_adjusted_utility(initial, nudged, profile, 2)
            > expected_adjusted_utility(initial, truthful, profile, 2)
            and expected_adjusted_utility(initial, nudged, profile, 1) == 0
        )
        not_flagged = check_weak_group_strategyproofness(initial, profile, config).holds
        t.finish(
            ok and weak_gain_present and not_flagged,
            "50 instances, n in {3,4}, exhaustive coalitions",
        )


def test_criterion_06_price_monotonicity():
    with Timer(6, "price monotone on every piece of every bid", 10) as t:
        instances = generate_suite(205, seed=SUITE_SEED + 4, n_range=(3, 8))
        prices = 0
        ok = True
        for initial, profile, config in instances:
            report = check_price_monotonicity(initial, profile, config)
            prices += report.cases
            if not report.holds:
                ok = False
                break
        t.finish(ok and prices >= 10_000, f"{prices} price evaluations")


def test_criterion_07_pp_expost_efficiency(suite_1000):
    with Timer(7, "proportionality and top-set, exact", 5) as t:
        ok = all(check_pp_expost_efficiency(*inst).holds for inst in suite_1000)
        t.finish(ok, f"{len(suite_1000)} instances")


def test_criterion_08_closed_form_matches_engine_everywhere():
    with Timer(8, "equal-shares closed form == engine, n in 4..200", 30) as t:
        rows, skipped = welfare_sweep(range(4, 201))
        assert skipped == []
        ok = True
        named_value_seen = False
        for row in rows:
            if row.closed_form != row.engine:
                ok = False
                break
            if not row.closed_form > Q(1, 2):
                ok = False
                break
            if row.limit_gap != (2 - row.alpha) / (2 * row.n):
                ok = False
                break
            if row.n == 10 and row.alpha == Q(1, 2):
                named_value_seen = (
                    row.closed_form == Q(33, 40)
                    and decimal_approx(row.closed_form) == "0.825"
                )
        t.finish(ok and named_value_seen, f"{len(rows)} (n, alpha) points")


def test_criterion_09_welfare_improvement_and_m_bar_sweep(suite_1000):
    with Timer(9, "expected welfare >= initial; monotone in m_bar", 10) as t:
        ok = all(
            expected_mbm_welfare(initial, profile, config)
            >= social_welfare(initial, profile)
            for initial, profile, config in suite_1000
        )
        if ok:
            sweep = generate_suite(100, seed=SUITE_SEED + 5, n_range=(4, 8))
            for initial, profile, _ in sweep:
                n = initial.n
                values = [
                    expected_mbm_welfare(initial, profile, MbmConfig(n, m_bar))
                    for m_bar in range(2, n)
                ]
                if not all(a >= b for a, b in zip(values, values[1:])):
                    ok = False
                    break
        t.finish(ok, "1000 instances + 100 m_bar sweeps")


def test_criterion_10_arbitrarily_small_preservation_ratio():
    with Timer(10, "construction drives preservation ratio below 1/100", 1) as t:
        initial, valuations, config = efficiency_loss_instance(Q(1, 100))
        report = welfare_report(initial, valuations, config)
        t.finish(
            report.preservation_ratio < Q(1, 100),
            f"ratio = {report.preservation_ratio}",
        )


def test_criterion_11_monte_carlo_branch_frequency(worked):
    with Timer(11, "empirical P(m=2) within 0.01 of 4/5", 5) as t:
        initial, profile, config = worked
        rng = random.Random(SUITE_SEED)
        draws = 100_000
        hits = sum(
            realize(initial, profile, config, rng).realized_m == 2
            for _ in range(draws)
        )
        gap = abs(Q(hits, draws) - Q(4, 5))
        t.finish(gap <= Q(1, 100), f"{hits}/{draws} high-branch draws, gap {gap}")


def test_criterion_12_cli_golden_run(capsys):
    with Timer(12, "cmd run reproduces the worked report byte-for-byte", 30) as t:
        worked_csv = os.path.join(DATA, "worked.csv")
        args = [
            "run", "--captable", worked_csv, "--mbar", "2", "--expected",
            "--format", "json",
        ]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        with open(os.path.join(DATA, "golden_run_expected.json"), encoding="utf-8") as fh:
            golden = fh.read()

        report = json.loads(out1)
        high, low = report["branches"]
        payments_zero = all(
            sum(rational(a["payment"]) for a in branch["agents"]) == 0
            for branch in (high, low)
        )
        ok = (
            code1 == 0
            and code2 == 0
            and out1 == out2
            and out1 == golden
            and report["price"] == "5"
            and (report["p_high"], report["p_low"]) == ("4/5", "1/5")
            and [a["final_share"] for a in high["agents"]] == ["5/8", "3/8", "0"]
            and [a["final_share"] for a in low["agents"]] == ["1", "0", "0"]
            and payments_zero
        )
        t.finish(ok, "byte-stable across runs and against the golden file")


def test_criterion_13_run_check_on_a_300_row_table(capsys):
    # the golden entries are read before the clock starts
    with open(os.path.join(DATA, "golden_run.json"), encoding="utf-8") as fh:
        golden = {
            case["argv"][-1]: case["stdout"]
            for case in json.load(fh)
            if case["argv"][2] == "large_fraction.csv" and "--expected" in case["argv"]
        }
    table = os.path.join(DATA, "large_fraction.csv")
    with Timer(13, "cmd run --check on 300 rows in json, csv and text", 1) as t:
        results = {}
        for fmt in ("json", "csv", "text"):
            argv = ["run", "--captable", table, "--mbar", "200", "--expected", "--check",
                    "--format", fmt]
            code = main(argv)
            results[fmt] = (code, capsys.readouterr().out)
        ok = sorted(golden) == sorted(results) and all(
            results[fmt] == (0, golden[fmt]) for fmt in golden
        )
        t.finish(ok, "each format equal to its golden entry, every check holding")


def test_criterion_14_threshold_classes_decide_as_rank_patterns(tmp_path, subprocess_env):
    # sp and group-sp walked on threshold classes and on every rank pattern,
    # ranked and scored in full, give equal verdicts and cases: at n = 3..7
    # here, and at n = 3..6 on a copy of the package under each mutant. The
    # class mutant breaks the class walk alone: under it the patterns must
    # hold and the classes must not. The mass mutant shifts a pattern
    # point's masses (the full order's, as the engine's) and a class's (the
    # non-members') by different agents. The truthful scores read the
    # non-members' masses too (core._lone), so the tie before any coalition
    # catches it in both walks, and the walks must still differ
    script = "import json, refinement; print(json.dumps(refinement.walk_verdicts(range(3, 7))))"
    tests = os.path.dirname(os.path.abspath(__file__))
    apart = (mutants.MASS_MUTANT, mutants.CLASS_MUTANT)
    with Timer(14, "threshold classes decide as rank patterns, under every mutant", 15) as t:
        walks = walk_verdicts(range(3, 8))
        ok = walks["classes"] == walks["patterns"]
        holding = walks["patterns"][:8]  # n = 3..6, two suites each
        for k, mutant in enumerate((*mutants.ENGINE_MUTANTS, *apart)):
            package = tmp_path / str(k) / "mbm"
            shutil.copytree(os.path.join(SRC, "mbm"), package)
            mutants.apply(package, mutant)
            env = dict(subprocess_env)
            env["PYTHONPATH"] = os.pathsep.join((str(package.parent), tests, env["PYTHONPATH"]))
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            walks = json.loads(proc.stdout)
            if mutant is mutants.CLASS_MUTANT:
                flagged = any(not h for v in walks["classes"] for h, _ in v)
                ok = ok and walks["patterns"] == holding and flagged
            elif mutant is mutants.MASS_MUTANT:
                ok = ok and walks["patterns"] != holding and walks["classes"] != walks["patterns"]
            else:
                ok = ok and walks["classes"] == walks["patterns"] != holding
        t.finish(ok, "10 instances per n and suite, 7 mutants")
