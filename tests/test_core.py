"""Core engine: types, ranking, pricing, branches, utilities.

Expected values for the worked instance are frozen from hand substitution
into the buyout formulas; the hypothesis tests assert the exact invariants
(conservation, price invariance, proportional scaling, threshold zero) on
randomized rational instances.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbm import (
    Allocation,
    BidProfile,
    DegenerateBuyerMass,
    DuplicateBids,
    InvalidAllocation,
    InvalidConfig,
    InvalidOwnerCount,
    MbmConfig,
    adjusted_utility,
    apply_branch,
    branch_probabilities,
    expected_adjusted_utilities,
    expected_adjusted_utility,
    rank_bids,
    realize,
    run_expected,
    threshold_price,
)
from mbm.instances import perturbed_profile
from mbm.rational import ONE, ZERO, Rational as Q
from mbm.suites import generate_suite

from strategies import instances

import random


# --- types -------------------------------------------------------------------


def test_allocation_validates_simplex():
    Allocation.from_shares((Q(1, 2), Q(1, 4), Q(1, 4))).validate()
    with pytest.raises(InvalidAllocation):
        Allocation.from_shares((Q(1, 2), Q(1, 4), Q(1, 5))).validate()
    with pytest.raises(InvalidAllocation):
        Allocation.from_shares((Q(3, 2), Q(-1, 4), Q(-1, 4))).validate()
    with pytest.raises(InvalidAllocation):
        Allocation(shares=(Q(1),), money=(Q(0), Q(0)))


def test_rationals_only_no_floats():
    with pytest.raises(TypeError):
        Allocation.from_shares((0.5, 0.3, 0.2))
    with pytest.raises(TypeError):
        BidProfile((10.0, 5, 2))
    # exact decimal text is fine
    alloc = Allocation.from_shares(("0.5", "0.3", "0.2"))
    assert alloc.shares == (Q(1, 2), Q(3, 10), Q(1, 5))


def test_core_types_are_immutable(worked):
    initial, profile, config = worked
    with pytest.raises(dataclasses.FrozenInstanceError):
        initial.shares = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.bids = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n = 5


def test_bid_profile_rejects_negative():
    with pytest.raises(ValueError):
        BidProfile((Q(1), Q(-1), Q(2)))


def test_config_bounds():
    MbmConfig(n=3, m_bar=2)
    with pytest.raises(InvalidConfig):
        MbmConfig(n=2, m_bar=1)
    with pytest.raises(InvalidConfig):
        MbmConfig(n=4, m_bar=1)
    with pytest.raises(InvalidConfig):
        MbmConfig(n=4, m_bar=4)


# --- ranking and price -------------------------------------------------------


def test_rank_bids_already_sorted():
    ranking = rank_bids(BidProfile((Q(10), Q(5), Q(2))))
    assert ranking.order == (0, 1, 2)
    assert ranking.rank_of == (1, 2, 3)


def test_rank_bids_permutation():
    ranking = rank_bids(BidProfile((Q(2), Q(10), Q(5))))
    assert ranking.order == (1, 2, 0)
    assert ranking.rank_of == (3, 1, 2)


def test_rank_bids_ties_rejected():
    with pytest.raises(DuplicateBids) as info:
        rank_bids(BidProfile((Q(5), Q(5), Q(2))))
    assert info.value.pairs == [(0, 1)]


def test_rank_bids_order_and_rank_of_are_inverses():
    ranking = rank_bids(BidProfile((Q(3), Q(9), Q(1), Q(7))))
    for agent, rank in enumerate(ranking.rank_of):
        assert ranking.order[rank - 1] == agent
    bids_in_order = [Q(3), Q(9), Q(1), Q(7)]
    ordered = [bids_in_order[a] for a in ranking.order]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


def test_threshold_price_examples():
    config = MbmConfig(n=3, m_bar=2)
    assert threshold_price(BidProfile((Q(10), Q(5), Q(2))), config) == 5
    assert threshold_price(BidProfile((Q(1), Q(3), Q(7), Q(9))), MbmConfig(4, 3)) == 3
    # re-evaluation after one agent raises her bid: price follows upward
    assert threshold_price(BidProfile((Q(10), Q(5), Q(6))), config) == 6


# --- branch probabilities ----------------------------------------------------


def test_branch_probabilities_equal_shares():
    initial = Allocation.from_shares((Q(1, 3),) * 3)
    profile = BidProfile((Q(10), Q(5), Q(2)))
    probs = branch_probabilities(initial, rank_bids(profile), MbmConfig(3, 2))
    assert probs == (Q(2, 3), Q(1, 3))


def test_branch_probabilities_worked(worked):
    initial, profile, config = worked
    assert branch_probabilities(initial, rank_bids(profile), config) == (Q(4, 5), Q(1, 5))


def test_branch_probabilities_follow_bidders_not_shareholders(worked):
    initial, _, config = worked
    # agent 2 now bids highest and agent 0 lowest: the top-2 bidders hold 1/2
    ranking = rank_bids(BidProfile((Q(2), Q(5), Q(10))))
    assert branch_probabilities(initial, ranking, config) == (Q(1, 2), Q(1, 2))


# --- apply_branch ------------------------------------------------------------


def test_apply_branch_high_worked(worked):
    initial, profile, config = worked
    outcome = apply_branch(initial, profile, config, 2)
    assert outcome.price == 5
    assert outcome.realized_m == 2
    assert outcome.branch_probability == Q(4, 5)
    assert outcome.final_allocation.shares == (Q(5, 8), Q(3, 8), ZERO)
    deltas = tuple(
        outcome.final_allocation.money[i] - initial.money[i] for i in range(3)
    )
    assert deltas == (Q(-5, 8), Q(-3, 8), Q(1))
    assert sum(deltas, ZERO) == 0


def test_apply_branch_low_worked(worked):
    initial, profile, config = worked
    outcome = apply_branch(initial, profile, config, 1)
    assert outcome.price == 5  # same price in both branches
    assert outcome.final_allocation.shares == (ONE, ZERO, ZERO)
    deltas = tuple(
        outcome.final_allocation.money[i] - initial.money[i] for i in range(3)
    )
    assert deltas == (Q(-5, 2), Q(3, 2), Q(1))
    assert sum(deltas, ZERO) == 0


def test_apply_branch_equal_shares_scale_to_equal():
    n = 5
    initial = Allocation.from_shares((Q(1, n),) * n)
    profile = BidProfile(tuple(Q(k) for k in (9, 7, 5, 3, 1)))
    for m_bar in (2, 3, 4):
        outcome = apply_branch(initial, profile, MbmConfig(n, m_bar), m_bar)
        buyers = outcome.ranking.order[:m_bar]
        assert all(outcome.final_allocation.shares[a] == Q(1, m_bar) for a in buyers)


def test_apply_branch_rejects_bad_owner_count(worked):
    initial, profile, config = worked
    for m in (0, 3, 5):
        with pytest.raises(InvalidOwnerCount):
            apply_branch(initial, profile, config, m)


def test_apply_branch_degenerate_buyer_mass():
    initial = Allocation.from_shares((ZERO, ZERO, ONE))
    profile = BidProfile((Q(10), Q(5), Q(2)))
    with pytest.raises(DegenerateBuyerMass):
        apply_branch(initial, profile, MbmConfig(3, 2), 2)


def test_apply_branch_raises_when_the_other_branch_is_degenerate():
    # the top two bidders hold nothing: the high branch alone is well
    # defined, but apply_branch is a view of run_expected and raises what
    # it raises
    initial = Allocation.from_shares((ZERO, ZERO, Q(1, 2), Q(1, 2)))
    profile = BidProfile((Q(10), Q(8), Q(5), Q(2)))
    with pytest.raises(DegenerateBuyerMass, match="all 2 prospective buyers"):
        apply_branch(initial, profile, MbmConfig(4, 3), 3)
    # both branches degenerate: the high branch is reported for either m
    nothing_on_top = Allocation.from_shares((ZERO, ZERO, ZERO, ONE))
    with pytest.raises(DegenerateBuyerMass, match="all 3 prospective buyers"):
        apply_branch(nothing_on_top, profile, MbmConfig(4, 3), 2)


def test_apply_branch_adds_to_existing_money(worked):
    _, profile, config = worked
    initial = Allocation(
        shares=(Q(1, 2), Q(3, 10), Q(1, 5)), money=(Q(7), Q(-1), Q(4))
    )
    outcome = apply_branch(initial, profile, config, 2)
    assert outcome.final_allocation.money == (Q(7) - Q(5, 8), Q(-1) - Q(3, 8), Q(5))


# --- run_expected ------------------------------------------------------------


def test_run_expected_worked(worked):
    initial, profile, config = worked
    expected = run_expected(initial, profile, config)
    assert expected.high_branch.realized_m == 2
    assert expected.low_branch.realized_m == 1
    assert expected.high_branch.branch_probability == Q(4, 5)
    assert expected.low_branch.branch_probability == Q(1, 5)


def test_run_expected_equal_shares_m_bar_n_minus_1():
    for n in (4, 6, 9):
        initial = Allocation.from_shares((Q(1, n),) * n)
        profile = BidProfile(tuple(Q(n - i) for i in range(n)))
        expected = run_expected(initial, profile, MbmConfig(n, n - 1))
        assert expected.high_branch.branch_probability == Q(n - 1, n)


@given(inst=instances())
def test_run_expected_probabilities_sum_to_one(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    assert (
        expected.high_branch.branch_probability + expected.low_branch.branch_probability
        == 1
    )


def test_zero_share_at_threshold_keeps_zero_probability_branch():
    # the lowest bidder holds nothing: the low branch has probability 0 but
    # is still computed and retained
    initial = Allocation.from_shares((Q(1, 2), Q(1, 2), ZERO))
    profile = BidProfile((Q(10), Q(5), Q(2)))
    expected = run_expected(initial, profile, MbmConfig(3, 2))
    assert expected.high_branch.branch_probability == 1
    assert expected.low_branch.branch_probability == 0
    assert expected.low_branch.final_allocation.shares == (ONE, ZERO, ZERO)


def test_run_expected_checks_in_order_on_multiply_invalid_inputs():
    # each input below is invalid in more than one way; the first check in
    # the engine's order decides which error is raised
    config = MbmConfig(3, 2)
    tied = BidProfile((Q(5), Q(5), Q(2)))
    with pytest.raises(InvalidConfig, match="allocation has 4 entries"):
        run_expected(Allocation.from_shares((Q(1, 4),) * 4), BidProfile((Q(1),)), config)
    negative = Allocation.from_shares((Q(3, 2), Q(-1, 4), Q(-1, 4)))
    with pytest.raises(InvalidAllocation, match="agent 1 has negative share -1/4"):
        run_expected(negative, tied, config)
    off_simplex = Allocation.from_shares((Q(1, 2), Q(1, 4), Q(1, 5)))
    with pytest.raises(InvalidAllocation, match="shares sum to 19/20"):
        run_expected(off_simplex, tied, config)
    with pytest.raises(DuplicateBids) as info:
        run_expected(Allocation.from_shares((ZERO, ZERO, ONE)), tied, config)
    assert info.value.pairs == [(0, 1)]
    # both branches degenerate: the high branch is reported
    bids = BidProfile((Q(10), Q(8), Q(5), Q(2)))
    nothing_on_top = Allocation.from_shares((ZERO, ZERO, ZERO, ONE))
    with pytest.raises(DegenerateBuyerMass, match="all 3 prospective buyers"):
        run_expected(nothing_on_top, bids, MbmConfig(4, 3))


def test_run_expected_low_branch_with_zero_buyer_mass_raises():
    # the top two bidders hold nothing: the high branch (three buyers) is
    # well defined, the low branch (two buyers) is not
    initial = Allocation.from_shares((ZERO, ZERO, Q(1, 2), Q(1, 2)))
    profile = BidProfile((Q(10), Q(8), Q(5), Q(2)))
    with pytest.raises(DegenerateBuyerMass, match="all 2 prospective buyers"):
        run_expected(initial, profile, MbmConfig(4, 3))


def test_run_expected_keeps_initial_money(worked):
    _, profile, config = worked
    initial = Allocation(
        shares=(Q(1, 2), Q(3, 10), Q(1, 5)), money=(Q(7), Q(-1), Q(4))
    )
    expected = run_expected(initial, profile, config)
    assert expected.high_branch.final_allocation == Allocation(
        (Q(5, 8), Q(3, 8), ZERO), (Q(51, 8), Q(-11, 8), Q(5))
    )
    assert expected.low_branch.final_allocation == Allocation(
        (ONE, ZERO, ZERO), (Q(9, 2), Q(1, 2), Q(5))
    )
    assert expected.high_branch == apply_branch(initial, profile, config, 2)
    assert expected.low_branch == apply_branch(initial, profile, config, 1)


# --- expected adjusted utilities read off the kernel ---------------------------


def _reference_utilities(initial, profile, config, valuations):
    expected = run_expected(initial, profile, config)
    return tuple(
        expected_adjusted_utility(initial, expected, valuations, j) for j in range(config.n)
    )


def _without_two_stakes(initial, profile, config):
    # the threshold bidder and the lowest bidder hand their stakes to the top
    # bidder: both hold nothing, and both branches keep a positive buyer mass
    order = rank_bids(profile).order
    shares = list(initial.shares)
    for j in (order[config.m_bar - 1], order[-1]):
        shares[order[0]] += shares[j]
        shares[j] = ZERO
    return Allocation.from_shares(shares)


def test_expected_adjusted_utilities_equal_reference_definition():
    rng = random.Random(17)
    checked = 0
    for initial, profile, _ in generate_suite(60, seed=23, n_range=(3, 8)):
        n = profile.n
        valuations = perturbed_profile(profile, rng)
        money = tuple(Q(rng.randint(-99, 99), rng.randint(1, 7)) for _ in range(n))
        for config in {MbmConfig(n, 2), MbmConfig(n, n - 1)}:
            starts = (
                initial,
                Allocation(initial.shares, money),
                _without_two_stakes(initial, profile, config),
            )
            for start in starts:
                for values in (profile, valuations):
                    got = expected_adjusted_utilities(start, profile, config, values)
                    assert got == _reference_utilities(start, profile, config, values)
                    checked += 1
    assert checked > 500


def test_expected_adjusted_utilities_raise_what_the_engine_raises():
    bids = BidProfile((Q(10), Q(8), Q(5), Q(2)))
    tied = BidProfile((Q(5), Q(5), Q(2)))
    cases = [
        (Allocation.from_shares((Q(1, 4),) * 4), BidProfile((Q(1),)), MbmConfig(3, 2)),
        (Allocation.from_shares((Q(3, 2), Q(-1, 4), Q(-1, 4))), tied, MbmConfig(3, 2)),
        (Allocation.from_shares((Q(1, 2), Q(1, 4), Q(1, 5))), tied, MbmConfig(3, 2)),
        (Allocation.from_shares((ZERO, ZERO, ONE)), tied, MbmConfig(3, 2)),
        (Allocation.from_shares((ONE, ZERO)), BidProfile((Q(2), Q(1))), MbmConfig(3, 2)),
        (Allocation.from_shares((ZERO, ZERO, ZERO, ONE)), bids, MbmConfig(4, 3)),
        (Allocation.from_shares((ZERO, ZERO, Q(1, 2), Q(1, 2))), bids, MbmConfig(4, 3)),
    ]
    for initial, profile, config in cases:
        with pytest.raises(Exception) as engine:
            run_expected(initial, profile, config)
        with pytest.raises(Exception) as readout:
            expected_adjusted_utilities(initial, profile, config, profile)
        assert type(readout.value) is type(engine.value)
        assert str(readout.value) == str(engine.value)


# --- realize -----------------------------------------------------------------


def test_realize_deterministic(worked):
    initial, profile, config = worked
    first = realize(initial, profile, config, 1234)
    second = realize(initial, profile, config, 1234)
    assert first == second
    assert first.realized_m in (1, 2)


def test_realize_accepts_shared_generator(worked):
    initial, profile, config = worked
    rng = random.Random(99)
    seen = {realize(initial, profile, config, rng).realized_m for _ in range(200)}
    assert seen == {1, 2}


def test_realize_certain_branch_always_sampled():
    initial = Allocation.from_shares((Q(1, 2), Q(1, 2), ZERO))
    profile = BidProfile((Q(10), Q(5), Q(2)))
    config = MbmConfig(3, 2)
    rng = random.Random(5)
    assert all(
        realize(initial, profile, config, rng).realized_m == 2 for _ in range(50)
    )


def test_realize_frequency_tracks_probability(worked):
    initial, profile, config = worked
    rng = random.Random(7)
    draws = 20_000
    hits = sum(
        realize(initial, profile, config, rng).realized_m == 2 for _ in range(draws)
    )
    assert abs(Q(hits, draws) - Q(4, 5)) < Q(1, 100)


def drawn_branch(expected, rng):
    # the lottery's rule: an integer below the reduced P(high)'s denominator,
    # compared against its numerator
    p_high = expected.high_branch.branch_probability
    hit_high = rng.randrange(p_high.denominator) < p_high.numerator
    return expected.high_branch if hit_high else expected.low_branch


def test_realize_draws_on_the_reduced_high_probability():
    # equal shares at n = 6, m_bar = 3: the kernel's P(high) is 3/6, drawn as
    # 1/2 (a power-of-two factor such as 2/4 would draw the same random bits)
    equal = (
        Allocation.from_shares((Q(1, 6),) * 6),
        BidProfile((Q(10), Q(9), Q(8), Q(7), Q(6), Q(5))),
        MbmConfig(6, 3),
    )
    for initial, profile, config in generate_suite(20, seed=31, n_range=(3, 8)) + [equal]:
        expected = run_expected(initial, profile, config)
        for seed in range(50):
            drawn = drawn_branch(expected, random.Random(seed))
            assert realize(initial, profile, config, seed) == drawn
        shared, twin = random.Random(8), random.Random(8)
        for _ in range(50):
            assert realize(initial, profile, config, shared) == drawn_branch(expected, twin)


# --- utilities ---------------------------------------------------------------


def test_adjusted_utility_seller_worked(worked):
    initial, profile, config = worked
    outcome = apply_branch(initial, profile, config, 2)
    # seller at v=2 cashes out 1/5 of the asset at price 5
    assert adjusted_utility(initial, outcome, profile, 2) == Q(3, 5)


def test_adjusted_utility_threshold_agent_zero_per_branch(worked):
    initial, profile, config = worked
    outcome = apply_branch(initial, profile, config, 2)
    assert adjusted_utility(initial, outcome, profile, 1) == 0
    outcome = apply_branch(initial, profile, config, 1)
    assert adjusted_utility(initial, outcome, profile, 1) == 0


def test_adjusted_utility_identity_outcome_is_zero(worked):
    initial, profile, config = worked
    from mbm.core import MechanismOutcome

    identity = MechanismOutcome(
        realized_m=2,
        price=Q(5),
        branch_probability=ONE,
        final_allocation=initial,
        ranking=rank_bids(profile),
    )
    for agent in range(3):
        assert adjusted_utility(initial, identity, profile, agent) == 0


def test_expected_adjusted_utility_worked(worked):
    initial, profile, config = worked
    expected = run_expected(initial, profile, config)
    assert expected_adjusted_utility(initial, expected, profile, 0) == 1
    assert expected_adjusted_utility(initial, expected, profile, 1) == 0
    assert expected_adjusted_utility(initial, expected, profile, 2) == Q(3, 5)
    readout = expected_adjusted_utilities(initial, profile, config, profile)
    assert readout == (ONE, ZERO, Q(3, 5))


def test_definite_buyer_above_price_gains_in_both_branches(worked):
    initial, profile, config = worked
    expected = run_expected(initial, profile, config)
    for branch in expected.branches:
        assert adjusted_utility(initial, branch, profile, 0) > 0


@given(inst=instances(), numerator=st.integers(0, 10**4))
def test_threshold_agent_expected_utility_zero_for_any_value(inst, numerator):
    # the branch weighting cancels the threshold agent's buyer and seller
    # terms whatever her true value is, not only at her bid
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    threshold_agent = expected.high_branch.ranking.agent_at(config.m_bar)
    arbitrary = Q(numerator, 89)
    bids = list(profile.bids)
    bids[threshold_agent] = arbitrary
    assert (
        expected_adjusted_utility(initial, expected, BidProfile(bids), threshold_agent)
        == 0
    )


# --- exact invariants on random instances ------------------------------------


@given(inst=instances())
def test_shares_and_money_conserved_exactly(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    for branch in expected.branches:
        final = branch.final_allocation
        assert sum(final.shares, ZERO) == sum(initial.shares, ZERO) == 1
        assert sum(final.money, ZERO) == sum(initial.money, ZERO)


@given(inst=instances())
def test_price_identical_across_branches(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    ranking = rank_bids(profile)
    m_bar_bid = profile.bids[ranking.agent_at(config.m_bar)]
    assert expected.high_branch.price == expected.low_branch.price == m_bar_bid


@given(inst=instances())
def test_exactly_m_owners_with_positive_shares(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    for branch in expected.branches:
        positive = sum(1 for s in branch.final_allocation.shares if s > 0)
        assert positive == branch.realized_m


@given(inst=instances())
def test_buyer_scaling_factor_is_reciprocal_buyer_mass(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    for branch in expected.branches:
        buyers = branch.ranking.order[: branch.realized_m]
        s_buy = sum((initial.shares[a] for a in buyers), ZERO)
        for a in buyers:
            assert branch.final_allocation.shares[a] == initial.shares[a] / s_buy


@given(inst=instances())
def test_individual_rationality_per_branch_truthful(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    for branch in expected.branches:
        for agent in range(config.n):
            assert adjusted_utility(initial, branch, profile, agent) >= 0


@given(inst=instances())
def test_branch_utilities_match_per_type_closed_forms(inst):
    # independent recomputation: a buyer's branch gain is
    # stake * (seller mass / buyer mass) * (value - price), a seller's is
    # stake * (price - value), with masses taken at the branch's owner count
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    for branch in expected.branches:
        order = branch.ranking.order
        m = branch.realized_m
        s_buy = sum((initial.shares[a] for a in order[:m]), ZERO)
        s_sell = sum((initial.shares[a] for a in order[m:]), ZERO)
        for pos, agent in enumerate(order):
            stake = initial.shares[agent]
            value = profile.bids[agent]
            if pos < m:
                want = stake * (s_sell / s_buy) * (value - branch.price)
            else:
                want = stake * (branch.price - value)
            assert adjusted_utility(initial, branch, profile, agent) == want


@given(inst=instances())
def test_stored_branch_probability_matches_top_share_sum(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    order = expected.high_branch.ranking.order
    top_mass = sum((initial.shares[a] for a in order[: config.m_bar]), ZERO)
    assert expected.high_branch.branch_probability == top_mass
    assert expected.low_branch.branch_probability == 1 - top_mass


@given(inst=instances())
def test_threshold_agent_truthful_expected_utility_zero(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    threshold_agent = expected.high_branch.ranking.agent_at(config.m_bar)
    assert expected_adjusted_utility(initial, expected, profile, threshold_agent) == 0


@given(inst=instances(allow_zero_shares=True))
def test_zero_share_instances_either_degenerate_cleanly_or_hold(inst):
    # zero stakes are allowed; a branch whose prospective buyers hold
    # nothing must fail loudly, anything else obeys the usual invariants
    initial, profile, config = inst
    ranking = rank_bids(profile)
    high_mass = sum((initial.shares[a] for a in ranking.order[: config.m_bar]), ZERO)
    low_mass = sum(
        (initial.shares[a] for a in ranking.order[: config.m_bar - 1]), ZERO
    )
    if high_mass == 0 or low_mass == 0:
        with pytest.raises(DegenerateBuyerMass):
            run_expected(initial, profile, config)
        return
    expected = run_expected(initial, profile, config)
    assert (
        expected.high_branch.branch_probability
        + expected.low_branch.branch_probability
        == 1
    )
    for branch in expected.branches:
        final = branch.final_allocation
        assert sum(final.shares, ZERO) == 1
        assert sum(final.money, ZERO) == sum(initial.money, ZERO)
        for agent in range(config.n):
            assert adjusted_utility(initial, branch, profile, agent) >= 0
    threshold_agent = ranking.agent_at(config.m_bar)
    assert expected_adjusted_utility(initial, expected, profile, threshold_agent) == 0
