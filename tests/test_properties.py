"""Oracles: verdicts on the worked instance, negative controls, grid behavior."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mbm import (
    Allocation,
    BidProfile,
    DegenerateBuyerMass,
    ExpectedOutcome,
    InvalidArgument,
    InvalidConfig,
    MbmConfig,
    MbmError,
    SearchBudgetExceeded,
    adjusted_utility,
    check_budget_balance,
    check_individual_rationality,
    check_pp_expost_efficiency,
    check_price_monotonicity,
    check_strategyproofness,
    check_weak_group_strategyproofness,
    corrupted_engine,
    deviation_grid,
    expected_adjusted_utility,
    run_expected,
)
from mbm import core, properties, suites
from mbm.captable import CapTableRecord
from mbm.core import (
    _bid_numerators,
    _bid_order,
    _masses,
    _over_lcm,
    _simplex_numerators,
)
from mbm.instances import InstanceSpec, generate, perturbed_profile
from mbm.properties import CORRUPTION_KINDS, PropertyReport, Witness
from mbm.rational import ONE, ZERO, Rational as Q, rational
from mbm.report import build_run_report
from mbm.suites import SUITES, generate_suite, run_suite
from references import (
    enumerated_coalition_budget,
    fraction_budget_balance,
    fraction_deviation_grid,
    fraction_individual_rationality,
    pairwise_pp_efficiency,
)
from refinement import pattern_walk, refined_sp_holds, utility_ratios

import itertools
import random
import re


# --- deviation grid ----------------------------------------------------------


def test_grid_candidates_never_tie_with_others():
    profile = BidProfile((Q(10), Q(5), Q(2), Q(7)))
    for agent in range(4):
        grid = deviation_grid(profile, agent)
        others = {b for j, b in enumerate(profile.bids) if j != agent}
        assert not (set(grid.candidates) & others)
        assert all(c >= 0 for c in grid.candidates)


def test_grid_covers_every_attainable_rank():
    profile = BidProfile((Q(10), Q(5), Q(2), Q(7)))
    n = 4
    for agent in range(n):
        others = sorted(b for j, b in enumerate(profile.bids) if j != agent)
        ranks = set()
        for cand in deviation_grid(profile, agent).candidates:
            ranks.add(1 + sum(1 for b in others if b > cand))
        assert ranks == set(range(1, n + 1))


def test_grid_every_gap_gets_a_candidate():
    profile = BidProfile((Q(10), Q(5), Q(2), Q(7)))
    grid = deviation_grid(profile, 0)
    others = sorted(b for j, b in enumerate(profile.bids) if j != 0)
    for lo, hi in zip(others, others[1:]):
        assert any(lo < c < hi for c in grid.candidates)


def test_grid_default_delta_is_thousandth_of_min_gap():
    profile = BidProfile((Q(10), Q(5), Q(2), Q(7)))
    grid = deviation_grid(profile, 0)  # others 2, 5, 7: smallest gap 2
    assert {Q(5) - Q(2, 1000), Q(5) + Q(2, 1000)} <= set(grid.candidates)


def test_grid_zero_minimum_bid_drops_negative_candidates():
    profile = BidProfile((Q(0), Q(5), Q(10)))
    grid = deviation_grid(profile, 2)  # others 0 and 5
    assert all(c >= 0 for c in grid.candidates)
    assert Q(0) not in grid.candidates


def _grid_profiles():
    """Bid profiles for the grid's reference check: seeded suites at n = 3..20
    with their perturbed twins, then zero bids, a lowest bid under a
    thousandth of the smallest gap, and bids over coprime denominators."""
    rng = random.Random(5)
    for n in range(3, 21):
        for _, profile, _ in generate_suite(6, seed=n, n_range=(n, n)):
            yield profile
            yield perturbed_profile(profile, rng)
    for n in range(3, 9):
        for _ in range(10):
            rest = rng.sample(range(1, 10**4), n - 1)
            yield BidProfile((ZERO,) + tuple(Q(x, 7) for x in rest))
            # integer bids at least 1 apart, and a lowest one below 1/1000
            tiny = Q(rng.randint(1, 999), 10**6)
            yield BidProfile((tiny,) + tuple(Q(x) for x in rest))
            # each bid in lowest terms over its own prime, so no two tie
            primes = (3, 5, 7, 11, 13, 17, 19, 23)
            yield BidProfile(tuple(Q(p * x + 1, p) for x, p in zip(rest + [0], primes)))


@given(
    st.lists(st.integers(1, 50), min_size=1, max_size=8),
    st.integers(0, 3),
    st.integers(1, 10**4),
    st.booleans(),
)
@example(steps=[1], low=0, spread=1, descending=False)  # a zero bid
@example(steps=[2, 3], low=1, spread=5000, descending=True)  # 1 < 10000 / 1000
def test_grid_size_is_three_per_other_bid_less_one_at_a_zero_bid(steps, low, spread, descending):
    # the deviation search counts grid cases by this formula, building no grid
    others = [low + spread * x for x in accumulate(steps, initial=0)]
    if descending:
        others.reverse()
    assert len(properties._grid(others)) == 3 * len(others) - 1 - (low == 0)


def test_grid_equals_fraction_reference():
    pairs = halves = zeros = 0
    for profile in _grid_profiles():
        for agent in range(profile.n):
            expected = fraction_deviation_grid(profile, agent)
            assert deviation_grid(profile, agent).candidates == expected, (profile, agent)
            pairs += 1
            others = [b for j, b in enumerate(profile.bids) if j != agent]
            halves += min(others) / 2 in expected
            zeros += ZERO in others
    assert pairs >= 3000, pairs
    assert halves > 0 and zeros > 0, (halves, zeros)


def test_deviation_searches_walk_the_whole_grid():
    # a holding verdict has scored every candidate: sp one per grid point of
    # each agent, group-sp every joint deviation of every coalition; then
    # each instance again with its lowest bid at 0, where every other
    # agent's grid has one candidate fewer
    def lowest_at_zero(profile):
        return profile.replace_bid(min(range(profile.n), key=profile.bids.__getitem__), 0)

    rng = random.Random(13)
    for zeroed in (False, True):
        for initial, profile, config in generate_suite(30, seed=13, n_range=(3, 8)):
            profile = lowest_at_zero(profile) if zeroed else profile
            for others in (profile, perturbed_profile(profile, rng)):
                report = check_strategyproofness(
                    initial, profile, config, others_profile=others
                )
                assert report.holds
                assert report.cases == sum(
                    len(fraction_deviation_grid(others, agent)) for agent in range(config.n)
                )
        for initial, profile, config in generate_suite(20, seed=13, n_range=(3, 4)):
            profile = lowest_at_zero(profile) if zeroed else profile
            report = check_weak_group_strategyproofness(initial, profile, config)
            assert report.holds
            grids = [fraction_deviation_grid(profile, j) for j in range(config.n)]
            assert report.cases == enumerated_coalition_budget(grids)


# --- report contract ---------------------------------------------------------


def test_violated_report_requires_witness():
    with pytest.raises(ValueError):
        PropertyReport(name="x", instance="y", holds=False, cases=1, witness=None)
    report = PropertyReport(
        name="x", instance="y", holds=False, cases=1, witness=Witness(detail="boom")
    )
    assert report.witness.detail == "boom"


# --- budget balance ----------------------------------------------------------


def test_budget_balance_holds_on_worked(worked):
    assert check_budget_balance(*worked).holds


def test_budget_balance_flags_corrupted_payment(worked):
    report = check_budget_balance(*worked, engine=corrupted_engine("payment"))
    assert not report.holds
    assert "1/1000" in report.witness.detail


def test_budget_balance_flags_corrupted_shares(worked):
    report = check_budget_balance(*worked, engine=corrupted_engine("shares"))
    assert not report.holds
    assert "shares" in report.witness.detail


# --- individual rationality ---------------------------------------------------


def test_ir_holds_on_worked(worked):
    report = check_individual_rationality(*worked)
    assert report.holds
    assert report.cases == 6  # 3 agents x 2 branches


def test_ir_flags_price_below_threshold_bid(worked):
    report = check_individual_rationality(*worked, engine=corrupted_engine("price-next"))
    assert not report.holds


def test_equal_valuations_rejected_as_ties():
    initial = Allocation.from_shares((Q(1, 3),) * 3)
    same = BidProfile((Q(5), Q(5), Q(5)))
    from mbm import DuplicateBids

    with pytest.raises(DuplicateBids):
        check_individual_rationality(initial, same, MbmConfig(3, 2))


# --- price monotonicity --------------------------------------------------------


def test_price_monotonicity_named_cases(worked):
    initial, profile, config = worked
    # raising a losing bid through the threshold raises the price
    assert run_expected(initial, profile.replace_bid(2, Q(6)), config).high_branch.price == 6
    # raising the already-top bid leaves the order statistic alone
    assert run_expected(initial, profile.replace_bid(0, Q(100)), config).high_branch.price == 5
    # dropping the top bid below everyone demotes the price to 2
    assert run_expected(initial, profile.replace_bid(0, Q(1)), config).high_branch.price == 2


def test_price_monotonicity_oracle_holds(worked):
    initial, profile, config = worked
    report = check_price_monotonicity(initial, profile, config)
    assert report.holds
    # three pieces per agent, three prices per piece
    assert report.cases == 27


def test_monotone_makes_as_many_rationals_at_n_40_as_at_n_20(monkeypatch):
    # the readouts are tied to the truthful price on integers, so the rationals
    # made do not grow with the number of agents
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    counts = []
    for n in (20, 40):
        instance = generate(InstanceSpec(n=n, share_model="random", valuation_model="random",
                                         m_bar=n // 2, seed=5))
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted)
            report = check_price_monotonicity(*instance)
        assert report.holds and report.cases == 3 * n * n
        counts.append(len(made))
    assert counts[0] == counts[1]


def test_price_monotonicity_flags_nonmonotone_rule(worked):
    initial, profile, config = worked
    report = check_price_monotonicity(
        initial, profile, config, engine=corrupted_engine("price-dip")
    )
    assert not report.holds
    # agent 0 alone below the others: the price 2 - b/2 falls on her bottom piece
    assert report.cases == 3
    assert report.witness.detail == "agent 0 bids 1/2, 1 get prices 7/4, 3/2: the price falls"
    assert report.witness.agent == 0
    assert report.witness.bids == (Q(1), Q(5), Q(2))


def test_oracles_deterministic_given_seed(worked):
    initial, profile, config = worked
    first = check_price_monotonicity(initial, profile, config)
    second = check_price_monotonicity(initial, profile, config)
    assert first == second
    assert check_strategyproofness(*worked) == check_strategyproofness(*worked)


def _repriced_high(expected, price):
    high = replace(expected.high_branch, price=price)
    return ExpectedOutcome(high_branch=high, low_branch=expected.low_branch)


def jump_at_other_bid(initial, profile, config):
    # the true price plus agent 0's bid, less 1/100 while she outbids agent 1:
    # it never falls inside a piece, and drops only as agent 0's bid passes
    # agent 1's
    expected = run_expected(initial, profile, config)
    bids = profile.bids
    price = expected.high_branch.price + bids[0] - (Q(1, 100) if bids[0] > bids[1] else 0)
    return _repriced_high(expected, price)


def dip_in_narrow_band(initial, profile, config):
    # the true price less 1 while agent 0 bids within 1/100 of 7/2, the middle
    # of her piece (2, 5) on the worked instance; elsewhere the true price
    expected = run_expected(initial, profile, config)
    price = expected.high_branch.price
    if abs(profile.bids[0] - Q(7, 2)) < Q(1, 100):
        price -= 1
    return _repriced_high(expected, price)


def test_price_monotonicity_flags_a_jump_at_another_bid(worked):
    # the closest sampled prices either side of agent 1's bid 5 still rise
    # (17/2 at 17/4, 1124/100 at 25/4); the limits 10 and 999/100 show the
    # jump, and the witness steps 3/1024 either side of 5
    initial, profile, config = worked
    report = check_price_monotonicity(initial, profile, config, engine=jump_at_other_bid)
    assert not report.holds
    assert report.cases == 9
    assert report.witness.detail == (
        "agent 0 bids 5117/1024, 5123/1024 get prices 5117/512, 255819/25600: "
        "the price falls"
    )


def test_price_monotonicity_flags_a_dip_inside_a_narrow_band(worked):
    initial, profile, config = worked
    report = check_price_monotonicity(initial, profile, config, engine=dip_in_narrow_band)
    assert not report.holds
    assert report.witness.detail == (
        "agent 0 bids 11/4, 7/2, 17/4 get prices 11/4, 5/2, 17/4: not affine on one piece"
    )


_MONOTONE_DETAIL = re.compile(r"agent (\d+) bids (.+) get prices (.+): (.+)\Z")


def test_monotonicity_witnesses_replay_through_the_engine(worked):
    # each witness's bids, run again through the engine that produced them,
    # give the prices its detail names, and those prices break the lemma
    generated = generate_suite(6, seed=31, n_range=(3, 4))
    runs = [(kind, corrupted_engine(kind), generated) for kind in CORRUPTION_KINDS]
    runs += [
        ("jump", jump_at_other_bid, [worked]),
        ("band", dip_in_narrow_band, [worked]),
    ]
    replayed = set()
    for label, engine, instances in runs:
        for initial, profile, config in instances:
            report = check_price_monotonicity(initial, profile, config, engine=engine)
            if report.holds:
                continue
            agent, bids, prices, reason = _MONOTONE_DETAIL.match(
                report.witness.detail
            ).groups()
            agent = int(agent)
            bids = [rational(b) for b in bids.split(", ")]
            prices = [rational(p) for p in prices.split(", ")]
            assert report.witness.agent == agent
            assert report.witness.bids == profile.replace_bid(agent, bids[-1]).bids
            assert bids == sorted(set(bids))
            assert prices == [
                engine(initial, profile.replace_bid(agent, b), config).high_branch.price
                for b in bids
            ], label
            if reason == "the price falls":
                assert len(prices) == 2 and prices[1] < prices[0], label
            else:
                assert reason == "not affine on one piece", label
                assert len(prices) == 3 and prices[0] + prices[2] != 2 * prices[1], label
            replayed.add((label, reason))
    assert replayed == {
        ("price-dip", "the price falls"),
        ("jump", "the price falls"),
        ("band", "not affine on one piece"),
    }


# --- strategyproofness ---------------------------------------------------------


def test_strategyproofness_holds_on_worked_truthful_others(worked):
    report = check_strategyproofness(*worked)
    assert report.holds


def test_threshold_agent_overbidding_turns_buyer_at_loss(worked):
    initial, profile, config = worked
    deviant = profile.replace_bid(1, Q(11))  # past the top bid: now a definite buyer
    eu = expected_adjusted_utility(
        initial, run_expected(initial, deviant, config), profile, 1
    )
    assert eu < 0


def test_definite_buyer_underbidding_turns_seller_at_loss(worked):
    initial, profile, config = worked
    deviant = profile.replace_bid(0, Q(1))  # below everyone: sells under value
    eu = expected_adjusted_utility(
        initial, run_expected(initial, deviant, config), profile, 0
    )
    assert eu < 0
    assert eu == Q(1, 2) * (Q(2) - Q(10))  # sells her half at the new price 2


def test_strategyproofness_flags_corrupted_price(worked):
    report = check_strategyproofness(*worked, engine=corrupted_engine("price-next"))
    assert not report.holds
    assert report.witness.utility_delta > 0


def test_strategyproofness_with_untruthful_others(worked):
    initial, profile, config = worked
    rng = random.Random(3)
    others = perturbed_profile(profile, rng)
    report = check_strategyproofness(
        initial, profile, config, others_profile=others
    )
    assert report.holds


def test_sp_scores_only_agent_zero_at_the_first_profile_of_another_engine(monkeypatch):
    # untruthful others, a corrupted engine: the first truthful profile is
    # scored for agent 0 alone, then each agent once at her own truthful bid
    # and once per grid point walked, one engine call per profile
    [(initial, profile, config)] = generate_suite(1, seed=3, n_range=(5, 5))
    others = perturbed_profile(profile, random.Random(0))
    control = corrupted_engine("price-next")
    profiles, scored = [], []

    def engine(*args):
        profiles.append(args[1])
        return control(*args)

    real_scorer = properties._scorer

    def counting_scorer(*args):
        score = real_scorer(*args)

        def counted(w, e, values, agents):
            for j, ratio in zip(agents, score(w, e, values, agents)):
                scored.append(j)
                yield ratio

        return counted

    monkeypatch.setattr(properties, "_scorer", counting_scorer)
    report = check_strategyproofness(
        initial, profile, config, others_profile=others, engine=engine
    )
    assert (config.n, report.holds, report.cases, report.witness.agent) == (5, False, 12, 1)
    assert scored[:2] == [0, 0]
    assert len(scored) == 1 + (report.witness.agent + 1) + report.cases == 15
    assert len(profiles) == len(scored)


def test_strategyproofness_rejects_missized_valuations(worked):
    initial, profile, config = worked
    for bids in (profile.bids + (Q(1),), profile.bids[:2]):
        with pytest.raises(InvalidConfig, match="valuations has"):
            check_strategyproofness(
                initial, BidProfile(bids), config, others_profile=profile
            )


@given(seed=st.integers(0, 10**6))
def test_strategyproofness_randomized(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    initial, profile, config = generate(
        InstanceSpec(n=n, m_bar=rng.randint(2, n - 1), seed=seed)
    )
    others = perturbed_profile(profile, rng)
    assert check_strategyproofness(
        initial, profile, config, others_profile=others
    ).holds


def test_refinement_does_not_change_verdicts():
    # the real engine holds on every grid; the corrupted ones each fail on
    # some instance, so agreement there shows the coarse grid finds what the
    # refined one finds
    engines = {"none": run_expected}
    engines.update((kind, corrupted_engine(kind)) for kind in CORRUPTION_KINDS)
    failed = {kind: 0 for kind in engines}
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        initial, profile, config = generate(
            InstanceSpec(n=n, m_bar=rng.randint(2, n - 1), seed=seed)
        )
        others = perturbed_profile(profile, rng)
        for kind, engine in engines.items():
            coarse = check_strategyproofness(
                initial, profile, config, others_profile=others, engine=engine
            )
            fine = refined_sp_holds(initial, profile, config, others, engine=engine)
            assert coarse.holds == fine, (kind, seed)
            failed[kind] += not fine
    assert failed["none"] == 0
    assert all(failed[kind] > 0 for kind in CORRUPTION_KINDS), failed


def test_sp_sees_a_gain_on_the_rank_patterns_of_one_agent(monkeypatch):
    # a class scorer that also pays agent 3 (value 2) ten times the highest
    # value once she is ranked third. At m_bar 2 her classes are (agent 0,
    # {3}), where she is ranked first, and (agent 1, {}), where she is ranked
    # third and gains: the rank patterns of one class score alike
    initial, profile, config = weak_gain_instance()
    a, d = _simplex_numerators(initial)
    real = properties._priced_ratios

    def paid(w, values, agents, ratios):
        if sorted(w, reverse=True).index(w[3]) == 2:
            return [(10 * d * max(values), 1) if j == 3 else r for j, r in zip(agents, ratios)]
        return ratios

    def paying(a, d, u, high, low, w, values, agents):
        return paid(w, values, agents, real(a, d, u, high, low, w, values, agents))

    monkeypatch.setattr(properties, "_priced_ratios", paying)
    report = check_strategyproofness(initial, profile, config)
    assert not report.holds
    assert report.witness.agent == 3
    # agents 0..2's grid cases, her two classes, then her one utility
    # replayed through the engine
    grids = [deviation_grid(profile, j).candidates for j in range(3)]
    assert report.cases == sum(map(len, grids)) + 2 + 1

    bids = report.witness.bids
    assert bids[:3] == profile.bids[:3] and 4 < bids[3] < 6
    scaled, e = _over_lcm(bids + profile.bids)
    w, values = scaled[:4], scaled[4:]
    ((num, den),) = paid(w, values, (3,), utility_ratios(a, d, config.m_bar, w, values, (3,)))
    ((t_num, t_den),) = paid(
        values, values, (3,), utility_ratios(a, d, config.m_bar, values, values, (3,))
    )
    assert num * t_den > t_num * den
    # the engine does not confirm the gain: paid 80, she sells 1/4 at the
    # price 6 for 1, as when truthful
    expected = run_expected(initial, BidProfile(bids), config)
    slow = expected_adjusted_utility(initial, expected, profile, 3)
    assert (Q(num, d * e * den), slow) == (80, 1)
    assert report.witness.detail == (
        "agent 3: the scorer gives 80 at the witness bids, the engine 1"
    )


# --- weak group strategyproofness ----------------------------------------------


def test_group_sp_holds_on_worked(worked):
    report = check_weak_group_strategyproofness(*worked)
    assert report.holds
    assert report.cases > 0


def weak_gain_instance():
    initial = Allocation.from_shares((Q(1, 4),) * 4)
    profile = BidProfile((Q(8), Q(6), Q(4), Q(2)))
    return initial, profile, MbmConfig(4, 2)


def test_known_weak_gain_exists_but_is_not_flagged():
    # the threshold agent can push the price up for the sellers while her own
    # expected gain stays pinned at zero: a weak, not all-strict, group gain
    initial, profile, config = weak_gain_instance()
    truthful = run_expected(initial, profile, config)
    assert expected_adjusted_utility(initial, truthful, profile, 1) == 0
    seller_truthful = expected_adjusted_utility(initial, truthful, profile, 2)

    nudged = run_expected(initial, profile.replace_bid(1, Q(7)), config)
    assert expected_adjusted_utility(initial, nudged, profile, 1) == 0
    assert expected_adjusted_utility(initial, nudged, profile, 2) > seller_truthful

    report = check_weak_group_strategyproofness(initial, profile, config)
    assert report.holds


def test_new_buyer_new_seller_swap_cannot_both_gain():
    # a coalition that swaps a buyer out and a seller in straddles the
    # truthful price, so at most one side can strictly profit
    initial, profile, config = weak_gain_instance()
    truthful = run_expected(initial, profile, config)
    eu_before = [
        expected_adjusted_utility(initial, truthful, profile, j) for j in range(4)
    ]
    swapped = profile.replace_bid(1, Q(3)).replace_bid(2, Q(7))
    deviant = run_expected(initial, swapped, config)
    gains = [
        expected_adjusted_utility(initial, deviant, profile, j) - eu_before[j]
        for j in (1, 2)
    ]
    assert not all(g > 0 for g in gains)
    assert gains[0] > 0 and gains[1] < 0  # the new seller wins, the new buyer pays


def test_group_sp_flags_corrupted_price(worked):
    report = check_weak_group_strategyproofness(
        *worked, engine=corrupted_engine("price-next")
    )
    assert not report.holds
    assert len(report.witness.coalition) >= 2


def test_group_sp_sees_a_gain_the_grid_only_reaches_as_a_tie(monkeypatch):
    # a class scorer that also pays members 2 and 3 once 3 outbids 2 and both
    # outbid agent 0's 8: at m_bar 3 that is one class of coalition (2, 3),
    # agent 0 at the threshold with both members above her, and the first it
    # walks. Both members' top grid candidate is 8 + 1/500, a tie, so no
    # joint grid deviation puts both above 8: only the classes see the gain
    initial, profile, _ = weak_gain_instance()
    config = MbmConfig(4, 3)
    a, d = _simplex_numerators(initial)
    real = properties._priced_ratios

    def paid(w, values, agents, ratios):
        if w[3] > w[2] > values[0]:
            # ten times the highest value: above any truthful utility
            return [
                (10 * d * max(values), 1) if j in (2, 3) else ratio
                for j, ratio in zip(agents, ratios)
            ]
        return ratios

    def gaining(a, d, u, high, low, w, values, agents):
        return paid(w, values, agents, real(a, d, u, high, low, w, values, agents))

    monkeypatch.setattr(properties, "_priced_ratios", gaining)
    report = check_weak_group_strategyproofness(initial, profile, config)
    assert not report.holds
    # replayed through the engine, the gain fails at the first member: she
    # buys at agent 0's price 8 for -1/2, not the 80 the scorer pays
    assert report.witness.agent == 2
    assert report.witness.detail == (
        "agent 2: the scorer gives 80 at the witness bids, the engine -1/2"
    )
    # the five earlier coalitions' grid cases, the one class walked, then
    # the one member compared
    grids = [deviation_grid(profile, j).candidates for j in range(4)]
    earlier = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    assert report.cases == sum(len(grids[i]) * len(grids[j]) for i, j in earlier) + 1 + 1
    bids = report.witness.bids
    assert bids[3] > bids[2] > profile.bids[0]
    scaled, _ = _over_lcm(bids + profile.bids)
    w, values = scaled[:4], scaled[4:]
    ratios = utility_ratios(a, d, config.m_bar, w, values, (2, 3))
    deviant = paid(w, values, (2, 3), ratios)
    ratios = utility_ratios(a, d, config.m_bar, values, values, (2, 3))
    truthful = paid(values, values, (2, 3), ratios)
    for (num, den), (t_num, t_den) in zip(deviant, truthful):
        assert num * t_den > t_num * den

    grids = [deviation_grid(profile, j).candidates for j in (2, 3)]
    assert max(grids[0]) == max(grids[1]) == Q(8002, 1000)
    assert not any(
        x != y and min(x, y) > profile.bids[0] for x in grids[0] for y in grids[1]
    )


def test_each_threshold_class_scores_as_its_rank_patterns():
    # every rank pattern's point, ranked and scored in full, scores as the
    # class it falls in (the non-member at rank m_bar, the members above
    # her), and the classes with a pattern point are exactly those walked.
    # Half the instances bid 0 at the bottom, where classes are skipped
    rng = random.Random(5)
    for idx, (initial, profile, config) in enumerate(generate_suite(24, seed=5, n_range=(3, 5))):
        n, m_bar = config.n, config.m_bar
        if idx % 2:
            profile = profile.replace_bid(min(range(n), key=profile.bids.__getitem__), 0)
        a, d = _simplex_numerators(initial)
        scaled, _ = _over_lcm(profile.bids + perturbed_profile(profile, rng).bids)
        base, values = [(n + 1) * x for x in scaled[:n]], [(n + 1) * x for x in scaled[n:]]
        order = _bid_order(base)
        ranking = (order, {j: i for i, j in enumerate(order)}, _masses(order, a))
        for k in range(1, n):
            for coalition in itertools.combinations(range(n), k):

                def classes(walk):
                    found = {}
                    for _, w, ratios in walk(ranking, a, d, m_bar, base, values, coalition):
                        order = sorted(range(n), key=w.__getitem__, reverse=True)
                        above = frozenset(order[: m_bar - 1]) & set(coalition)
                        found.setdefault((order[m_bar - 1], above), set()).add(tuple(ratios))
                    return found

                walked = classes(properties._classes)
                assert all(len(ratios) == 1 for ratios in walked.values())
                assert classes(pattern_walk) == walked, (idx, coalition)


def test_negative_budget_refused_before_any_work(worked):
    message = "search budget must not be negative, got -1"
    with pytest.raises(InvalidArgument, match=message):
        check_weak_group_strategyproofness(*worked, budget=-1)

    def untouched():
        raise AssertionError("instances read")
        yield

    for suite in SUITES:
        with pytest.raises(InvalidArgument, match=message):
            run_suite(suite, untouched(), budget=-1)


def test_run_suite_seeds_a_generator_for_sp_only(monkeypatch):
    # only sp's perturbed others draw from it; sp's draws are pinned by the goldens
    made = []

    class Counted(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    instances = generate_suite(4, seed=3, n_range=(3, 4))
    counts = {}
    for suite in SUITES:
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(suites.random, "Random", Counted)
            run_suite(suite, instances, seed=3)
        counts[suite] = len(made)
    assert counts == {suite: int(suite == "sp") for suite in SUITES}


def test_unknown_suite_names_the_suites():
    with pytest.raises(ValueError) as info:
        run_suite("nope", [])
    assert str(info.value) == f"unknown suite 'nope', pick from {SUITES}"


def test_group_sp_budget_cap():
    initial, profile, config = weak_gain_instance()
    with pytest.raises(SearchBudgetExceeded):
        check_weak_group_strategyproofness(initial, profile, config, budget=10)


def test_group_sp_budget_equals_enumerated_count():
    # one below the count every coalition adds up to must be refused, and the
    # refusal must report that count
    for n in range(3, 11):
        for initial, profile, config in generate_suite(5, seed=n, n_range=(n, n)):
            grids = [deviation_grid(profile, j).candidates for j in range(n)]
            required = enumerated_coalition_budget(grids)
            with pytest.raises(SearchBudgetExceeded) as info:
                check_weak_group_strategyproofness(
                    initial, profile, config, budget=required - 1
                )
            assert info.value.required == required


# --- proportionality-preserving ex-post efficiency ------------------------------


def test_pp_efficiency_holds_with_exact_ratio(worked):
    initial, profile, config = worked
    report = check_pp_expost_efficiency(initial, profile, config)
    assert report.holds
    outcome = run_expected(initial, profile, config).high_branch
    shares = outcome.final_allocation.shares
    assert shares[0] / shares[1] == initial.shares[0] / initial.shares[1] == Q(5, 3)


def test_pp_efficiency_equal_shares_give_equal_finals():
    initial = Allocation.from_shares((Q(1, 4),) * 4)
    profile = BidProfile((Q(9), Q(7), Q(5), Q(3)))
    config = MbmConfig(4, 3)
    assert check_pp_expost_efficiency(initial, profile, config).holds
    outcome = run_expected(initial, profile, config).high_branch
    owners = [s for s in outcome.final_allocation.shares if s > 0]
    assert len(set(owners)) == 1


def test_pp_efficiency_flags_skewed_scaling(worked):
    report = check_pp_expost_efficiency(*worked, engine=corrupted_engine("scale-skew"))
    assert not report.holds
    assert "ratio" in report.witness.detail


def cash_out_second_bidder(initial, profile, config):
    # the high branch cashes out only the second-highest bidder and keeps
    # everyone else in their initial proportions: every ratio holds, so only
    # the seller-against-owner comparison can catch it
    expected = run_expected(initial, profile, config)
    high = expected.high_branch
    seller = high.order[1]
    rest = ONE - initial.shares[seller]
    shares = tuple(ZERO if j == seller else s / rest for j, s in enumerate(initial.shares))
    final = Allocation(shares, high.final_allocation.money)
    return ExpectedOutcome(
        high_branch=replace(high, final_allocation=final), low_branch=expected.low_branch
    )


def test_pp_efficiency_flags_only_agents_cashed_out_of_a_stake():
    # agent 0 has no stake and outbids owner 1: she buys in the high branch and
    # ends at share 0, which keeps her proportion, so the real engine holds.
    # Cashing out agent 1 (stake 1/6, value 3 above the last owner's 1) is
    # still caught, and the witness names her, not agent 0
    initial = Allocation.from_shares((ZERO, Q(1, 6), ZERO, Q(5, 6)))
    profile = BidProfile((Q(4), Q(3), Q(2), Q(1)))
    config = MbmConfig(4, 3)
    for check in (check_pp_expost_efficiency, pairwise_pp_efficiency):
        assert check(initial, profile, config).holds
        report = check(initial, profile, config, engine=cash_out_second_bidder)
        assert not report.holds
        assert report.witness.agent == 1
        assert report.witness.detail == (
            "branch m=3: seller 1 values the asset at 3, above owner 3's 1"
        )
    # the zero-stake agents stay in the count: n - 1 per branch
    assert check_pp_expost_efficiency(initial, profile, config).cases == 6


def test_pp_efficiency_equals_pairwise_reference():
    engines = {"none": run_expected, "cash-out-second": cash_out_second_bidder}
    engines.update((kind, corrupted_engine(kind)) for kind in CORRUPTION_KINDS)
    instances = generate_suite(60, seed=7, n_range=(3, 12))
    instances += generate_suite(4, seed=9, n_range=(30, 60))
    failed = dict.fromkeys(engines, 0)
    for initial, profile, config in instances:
        for kind, engine in engines.items():
            report = check_pp_expost_efficiency(initial, profile, config, engine=engine)
            reference = pairwise_pp_efficiency(initial, profile, config, engine=engine)
            assert report.holds == reference.holds, kind
            assert report.witness == reference.witness, kind
            if report.holds:
                # one comparison per agent but the reference owner, per branch
                assert report.cases == 2 * (config.n - 1)
            else:
                failed[kind] += 1
                assert report.cases <= reference.cases
    assert failed["none"] == 0
    assert failed["cash-out-second"] == len(instances)
    assert failed["shares"] > 0 and failed["scale-skew"] > 0, failed


def reference_cases():
    """(instances, engines): ``generate_suite(200, seed=7)`` and the same
    instances holding nonzero initial money; the real engine, every
    corruption kind and ``cash_out_second_bidder``."""
    instances = generate_suite(200, seed=7)
    rng = random.Random(7)
    funded = [
        (
            Allocation(
                initial.shares,
                tuple(Q(rng.randint(-9, 9) or 1, rng.randint(1, 6)) for _ in initial.shares),
            ),
            profile,
            config,
        )
        for initial, profile, config in instances
    ]
    engines = {"none": run_expected, "cash-out-second": cash_out_second_bidder}
    engines.update((kind, corrupted_engine(kind)) for kind in CORRUPTION_KINDS)
    return instances + funded, engines


def test_budget_balance_and_ir_equal_fraction_references():
    # the oracles read the outcome over common denominators; the references
    # sum and subtract its rationals. Verdicts, cases and every witness field
    # (detail, agent, bids, utility_delta) must agree.
    instances, engines = reference_cases()
    pairs = (
        (check_budget_balance, fraction_budget_balance),
        (check_individual_rationality, fraction_individual_rationality),
    )
    failed = {kind: [0, 0] for kind in engines}
    for initial, profile, config in instances:
        for kind, engine in engines.items():
            for i, (oracle, reference) in enumerate(pairs):
                report = oracle(initial, profile, config, engine=engine)
                assert report == reference(initial, profile, config, engine=engine), kind
                failed[kind][i] += not report.holds
    everywhere = len(instances)
    assert failed["none"] == [0, 0]
    assert failed["payment"][0] == failed["shares"][0] == everywhere, failed
    assert failed["price-next"][1] > 0 and failed["price-dip"][1] > 0, failed


def test_report_rows_equal_adjusted_utility():
    instances, engines = reference_cases()
    for initial, profile, config in instances:
        records = [CapTableRecord(f"a{j}", share) for j, share in enumerate(initial.shares)]
        for kind, engine in engines.items():
            expected = engine(initial, profile, config)
            report = build_run_report(
                records, initial, profile, config, expected,
                mode="expected", seed=None, captable_name="t.csv",
            )
            for outcome, branch in zip(expected.branches, json.loads(report.to_json())["branches"]):
                final = outcome.final_allocation
                for agent, row in enumerate(branch["agents"]):
                    payment = final.money[agent] - initial.money[agent]
                    utility = adjusted_utility(initial, outcome, profile, agent)
                    assert row["payment"] == str(payment), kind
                    assert row["adjusted_utility"] == str(utility), kind


def test_scorer_tie_witness_reads_the_engine(monkeypatch):
    # a scorer one unit over d * e too high fails the tie at the first type
    # agent, with the witness text the rational utilities print
    real = properties._priced_ratios
    monkeypatch.setattr(
        properties, "_priced_ratios",
        lambda *args: [(num + den, den) for num, den in real(*args)],
    )
    for initial, profile, config in generate_suite(20, seed=7):
        report = check_strategyproofness(initial, profile, config)
        assert (report.holds, report.cases) == (False, 1)
        expected = run_expected(initial, profile, config)
        order = expected.high_branch.order
        j = min(order[0], order[config.m_bar - 1], order[-1])
        slow = expected_adjusted_utility(initial, expected, profile, j)
        _, d = _simplex_numerators(initial)
        _, e = _over_lcm(profile.bids)
        fast = slow + Q(1, d * e)
        assert report.witness.agent == j
        assert report.witness.detail == (
            f"agent {j}: the scorer gives {fast} at the witness bids, the engine {slow}"
        )


# --- corruption kinds ------------------------------------------------------------


def test_unknown_corruption_kind_rejected():
    with pytest.raises(ValueError):
        corrupted_engine("bogus")


def test_every_corruption_kind_trips_some_oracle(worked):
    initial, profile, config = worked
    oracles = (
        lambda e: check_budget_balance(initial, profile, config, engine=e),
        lambda e: check_individual_rationality(initial, profile, config, engine=e),
        lambda e: check_pp_expost_efficiency(initial, profile, config, engine=e),
        lambda e: check_strategyproofness(initial, profile, config, engine=e),
        lambda e: check_price_monotonicity(initial, profile, config, engine=e),
    )
    for kind in CORRUPTION_KINDS:
        engine = corrupted_engine(kind)
        assert any(not oracle(engine).holds for oracle in oracles), kind


@pytest.mark.parametrize(
    "kind, price, high_money, low_money",
    [
        ("price-next", Q(2), (Q(-1, 4), Q(-3, 20), Q(2, 5)), (Q(-1), Q(3, 5), Q(2, 5))),
        ("price-dip", Q(4), (Q(-1, 2), Q(-3, 10), Q(4, 5)), (Q(-2), Q(6, 5), Q(4, 5))),
    ],
)
def test_price_controls_reprice_both_branches(worked, kind, price, high_money, low_money):
    # hand-checked: the true trades (buyers gain mass, sellers give it up)
    # settled at the control's price, 2 = next bid, 4 = 5 - 2/2
    initial, profile, config = worked
    true = run_expected(initial, profile, config)
    expected = corrupted_engine(kind)(initial, profile, config)
    assert [branch.price for branch in expected.branches] == [price, price]
    assert expected.high_branch.final_allocation.money == high_money
    assert expected.low_branch.final_allocation.money == low_money
    for branch, truth in zip(expected.branches, true.branches):
        assert branch.final_allocation.shares == truth.final_allocation.shares
        assert branch.branch_probability == truth.branch_probability


def with_money(initial, rng):
    # the same shares with negative money over assorted denominators
    money = [Q(-rng.randint(1, 50), rng.choice((1, 3, 4, 7, 10))) for _ in initial.shares]
    return Allocation(initial.shares, money)


def test_scorer_reads_another_engine_exactly_with_money():
    # every non-real engine, the real one behind a wrapper included, is
    # scored on integers equal to expected_adjusted_utility times d * e,
    # at the valuations and at perturbed bids, with and without money
    engines = [corrupted_engine(kind) for kind in CORRUPTION_KINDS]
    engines.append(lambda *args: run_expected(*args))
    rng = random.Random(53)
    for base, profile, config in generate_suite(20, seed=53, n_range=(3, 8)):
        others = perturbed_profile(profile, rng)
        for initial in (base, with_money(base, rng)):
            a, d = _simplex_numerators(initial)
            for engine in engines:
                score = properties._scorer(engine, initial, config)
                for bids in (profile, others):
                    scaled, e = _over_lcm(bids.bids + profile.bids)
                    w, values = scaled[: config.n], scaled[config.n :]
                    expected = engine(initial, bids, config)
                    ratios = list(score(w, e, values, range(config.n)))
                    assert len(ratios) == config.n
                    for j, (num, den) in enumerate(ratios):
                        slow = expected_adjusted_utility(initial, expected, profile, j)
                        assert den > 0
                        assert Q(num, den) == slow * d * e


def test_controls_score_and_price_on_integers_alone():
    # a non-real engine gets its profile built on integers and its branches
    # read through their forms: scoring one grid point under price-next and
    # pricing one piece under price-dip make no bids, shares or money tuple
    initial, profile, config = next(iter(generate_suite(1, seed=7, n_range=(5, 5))))
    seen = []

    def spied(kind):
        engine = corrupted_engine(kind)

        def spy(initial, profile, config):
            expected = engine(initial, profile, config)
            seen.append((profile, expected))
            return expected

        return spy

    w, e = _bid_numerators(profile)
    values = [1000 * x for x in w]
    point = values[:]
    point[0] = properties._grid(w[1:])[0]
    score = properties._scorer(spied("price-next"), initial, config)
    assert len(list(score(point, 1000 * e, values, range(config.n)))) == config.n
    price, _ = properties._pricer(spied("price-dip"), initial, config, w, e)(0)
    lo, hi = sorted(w[1:])[:2]
    for k in (1, 2, 3):
        price(4 * lo + k * (hi - lo), 4)
    assert len(seen) == 4
    for bids, expected in seen:
        assert "bids" not in vars(bids)
        for branch in expected.branches:
            assert not {"shares", "money"} & vars(branch.final_allocation).keys()


@pytest.mark.parametrize("kind", ["price-next", "price-dip"])
def test_price_controls_reprice_exactly_with_money(kind):
    # both branches settle the true trades at the control's price, money
    # x + (s0 - s1) price in Fractions; the probabilities, shares and order
    # are the true outcome's
    rng = random.Random(59)
    for base, profile, config in generate_suite(12, seed=59, n_range=(3, 7)):
        initial = with_money(base, rng)
        truth = run_expected(initial, profile, config)
        repriced = corrupted_engine(kind)(initial, profile, config)
        bids, order = profile.bids, truth.high_branch.order
        if kind == "price-next":
            price = bids[order[config.m_bar]]
        else:
            price = bids[order[config.m_bar - 1]] - bids[order[-1]] / 2
        references = (
            _repriced_high(truth, price).high_branch,
            replace(truth.low_branch, price=price),
        )
        for branch, reference in zip(repriced.branches, references):
            shares = reference.final_allocation.shares
            money = tuple(
                x + (s0 - s1) * price
                for x, s0, s1 in zip(initial.money, initial.shares, shares)
            )
            assert branch == replace(reference, final_allocation=Allocation(shares, money))


# --- kernel readout against the reference path -----------------------------------


def reference_engine(initial, profile, config):
    # not the real engine by identity, so oracles take the reference path:
    # the outcome, read per agent as test_scorer_reads_another_engine_exactly_with_money
    # holds it to expected_adjusted_utility
    return run_expected(initial, profile, config)


def verdict(check, *args, **kwargs):
    """The oracle's report, or the type and message of the error it raised."""
    try:
        return check(*args, **kwargs)
    except MbmError as exc:
        return type(exc), str(exc)


# two zero-share agents: some deviation puts them on top, and the search
# raises DegenerateBuyerMass partway through
ZERO_STAKE_INSTANCES = [
    (Allocation.from_shares(shares), BidProfile((Q(8), Q(6), Q(4), Q(2))), MbmConfig(4, m_bar))
    for shares in (
        (Q(1, 2), ZERO, ZERO, Q(1, 2)),
        (Q(1, 2), Q(1, 2), ZERO, ZERO),
        (ZERO, Q(1, 3), ZERO, Q(2, 3)),
    )
    for m_bar in (2, 3)
]


def test_sp_verdicts_equal_on_readout_and_reference_paths():
    rng = random.Random(41)
    instances = generate_suite(40, seed=43, n_range=(3, 8)) + [weak_gain_instance()]
    degenerate = 0
    for initial, profile, config in instances + ZERO_STAKE_INSTANCES:
        for others in (None, perturbed_profile(profile, rng)):
            fast = verdict(
                check_strategyproofness, initial, profile, config, others_profile=others
            )
            slow = verdict(
                check_strategyproofness,
                initial,
                profile,
                config,
                others_profile=others,
                engine=reference_engine,
            )
            assert fast == slow
            degenerate += isinstance(fast, tuple) and fast[0] is DegenerateBuyerMass
    assert degenerate == 10  # five of the six zero-stake instances, both others


def test_real_engine_never_walks_the_grid_on_zero_stakes(monkeypatch):
    # a zero share raises at a degenerate threshold class, not at a grid point
    def no_grid(others):
        raise AssertionError("the real engine walked the grid")

    monkeypatch.setattr(properties, "_grid", no_grid)
    rng = random.Random(41)
    for initial, profile, config in ZERO_STAKE_INSTANCES:
        for others in (None, perturbed_profile(profile, rng)):
            verdict(check_strategyproofness, initial, profile, config, others_profile=others)
        verdict(check_weak_group_strategyproofness, initial, profile, config)


# the real engine's group-sp error on each of ZERO_STAKE_INSTANCES: raised at
# the first degenerate threshold class, which need not be the reference
# path's first degenerate grid point (at index 2 that one has 1 buyer)
ZERO_STAKE_GROUP_SP_BUYERS = (2, 2, 2, 2, 1, 2)


def test_group_sp_verdicts_equal_on_readout_and_reference_paths():
    # n = 5 is compared with frozen output in test_cli: there the reference
    # path needs about 25 s per instance (Python 3.11, fractions backend)
    instances = generate_suite(30, seed=47, n_range=(3, 4)) + [weak_gain_instance()]
    degenerate = []
    for initial, profile, config in instances + ZERO_STAKE_INSTANCES:
        fast = verdict(check_weak_group_strategyproofness, initial, profile, config)
        slow = verdict(
            check_weak_group_strategyproofness,
            initial,
            profile,
            config,
            engine=reference_engine,
        )
        if isinstance(fast, tuple) and fast[0] is DegenerateBuyerMass:
            assert fast[0] is slow[0]
            degenerate.append(fast[1])
        else:
            assert fast == slow
    assert len(degenerate) == len(ZERO_STAKE_INSTANCES)
    assert degenerate == [
        f"all {m} prospective buyers hold zero initial shares"
        for m in ZERO_STAKE_GROUP_SP_BUYERS
    ]


def test_monotone_verdicts_equal_on_readout_and_reference_paths():
    # the readout raises DegenerateBuyerMass at the same piece point as the
    # engine does
    instances = generate_suite(40, seed=43, n_range=(3, 8))
    degenerate = 0
    for initial, profile, config in instances + ZERO_STAKE_INSTANCES:
        fast = verdict(check_price_monotonicity, initial, profile, config)
        slow = verdict(
            check_price_monotonicity, initial, profile, config, engine=reference_engine
        )
        assert fast == slow
        degenerate += isinstance(fast, tuple) and fast[0] is DegenerateBuyerMass
    assert degenerate == 5  # five of the six zero-stake instances


def test_each_oracle_call_ranks_the_fixed_bids_once(monkeypatch):
    # sp (against the valuations and against perturbed others), group-sp and
    # the monotone readout read every agent's or coalition's others off one
    # ranking of the fixed bids: one _masses per call, not one per agent or
    # coalition, and as many _bid_order calls, through core's binding and
    # properties', at n = 40 as at n = 20
    calls, sorts = [], []
    masses, bid_order = properties._masses, core._bid_order
    monkeypatch.setattr(properties, "_masses", lambda *args: calls.append(1) or masses(*args))
    for module in (core, properties):
        monkeypatch.setattr(module, "_bid_order", lambda w: sorts.append(1) or bid_order(w))
    group = generate(InstanceSpec(n=5, m_bar=3, seed=1))
    counted = {}
    for n in (20, 40):
        sp = generate(InstanceSpec(n=n, m_bar=n // 2, seed=1))
        others = perturbed_profile(sp[1], random.Random(n))
        for name, check, instance, kwargs in (
            ("sp", check_strategyproofness, sp, {}),
            ("sp, perturbed others", check_strategyproofness, sp, {"others_profile": others}),
            ("group-sp", check_weak_group_strategyproofness, group, {}),
            ("monotone", check_price_monotonicity, ZERO_STAKE_INSTANCES[3], {}),  # zero shares
        ):
            calls.clear()
            sorts.clear()
            assert check(*instance, **kwargs).holds
            assert len(calls) == 1, name
            counted.setdefault(name, []).append(len(sorts))
    assert counted == {name: [k, k] for name, (k, _) in counted.items()}, counted


# the suites that catch each injected defect on one small seeded batch
CAUGHT_BY = {
    "payment": {"budget", "sp"},
    "shares": {"budget", "efficiency"},
    "scale-skew": {"ir", "sp", "group-sp", "efficiency"},
    "price-next": {"ir", "sp", "group-sp"},
    "price-dip": {"ir", "sp", "group-sp", "monotone"},
}


def test_each_corruption_kind_is_caught_by_its_suites():
    assert set(CAUGHT_BY) == set(CORRUPTION_KINDS)
    instances = generate_suite(6, seed=31, n_range=(3, 4))
    for kind, suites in CAUGHT_BY.items():
        engine = corrupted_engine(kind)
        caught = {
            suite
            for suite in SUITES
            if not all(
                r.holds for r in run_suite(suite, instances, seed=31, engine=engine)
            )
        }
        assert caught == suites, kind


def test_deviation_witnesses_replay_through_the_engine():
    # a witness's bids, run again through the engine that produced them, give
    # back the reported gain: sp's utility_delta is exactly the deviant
    # utility less the truthful one, and every coalition member gains
    instances = generate_suite(6, seed=31, n_range=(3, 4))
    rng = random.Random(31)
    replayed = set()
    for kind in CORRUPTION_KINDS:
        engine = corrupted_engine(kind)
        for initial, profile, config in instances:

            def utility(bids, agent):
                expected = engine(initial, BidProfile(bids), config)
                return expected_adjusted_utility(initial, expected, profile, agent)

            for others in (profile, perturbed_profile(profile, rng)):
                report = check_strategyproofness(
                    initial, profile, config, others_profile=others, engine=engine
                )
                if not report.holds:
                    j = report.witness.agent
                    truthful = others.replace_bid(j, profile.bids[j]).bids
                    gain = utility(report.witness.bids, j) - utility(truthful, j)
                    assert report.witness.utility_delta == gain > 0, kind
                    replayed.add((kind, "sp"))
            report = check_weak_group_strategyproofness(
                initial, profile, config, engine=engine
            )
            if not report.holds:
                for j in report.witness.coalition:
                    assert utility(report.witness.bids, j) > utility(profile.bids, j), kind
                replayed.add((kind, "group-sp"))
    assert replayed == {
        (kind, suite)
        for kind, suites in CAUGHT_BY.items()
        for suite in suites & {"sp", "group-sp"}
    }
