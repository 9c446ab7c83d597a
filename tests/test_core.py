"""Core engine: types, bid order, ``run_expected``'s branches, utilities.

Expected values for the worked instance are frozen from hand substitution
into the buyout formulas; the hypothesis tests assert the exact invariants
(conservation, price invariance, proportional scaling, threshold zero) on
randomized rational instances.
"""

import dataclasses
import pickle

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
    MbmConfig,
    adjusted_utility,
    expected_adjusted_utility,
    rank_bids,
    realize,
    run_expected,
)
from mbm.core import (
    _above,
    _bid_numerators,
    _bid_order,
    _branches,
    _holdings,
    _kernel,
    _lone,
    _masses,
    _over_lcm,
    _priced_ratios,
    _share_numerators,
    _utilities,
    _weighted,
)
from mbm.instances import perturbed_profile
from mbm.properties import CORRUPTION_KINDS, corrupted_engine
from mbm.rational import ONE, ZERO, Rational as Q
from mbm.suites import generate_suite

from references import branch_fields, fraction_run_expected, fraction_utility_table
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


# --- integer forms -------------------------------------------------------------


def _paper_settlement(initial, branch):
    # the branch's allocation as the paper writes it, in rationals: the top m
    # bidders scale their stakes by 1 / (buyer mass), the rest hold nothing,
    # and every agent's money moves by (initial - final share) * price
    buyers = branch.order[: branch.realized_m]
    mass = sum(initial.shares[i] for i in buyers)
    shares = tuple(s / mass if i in buyers else ZERO for i, s in enumerate(initial.shares))
    money = tuple(
        x + (s0 - s1) * branch.price for x, s0, s1 in zip(initial.money, initial.shares, shares)
    )
    return shares, money


def _form_rationals(allocation):
    s, t, y, z = _holdings(allocation)
    assert t > 0 and z > 0
    return tuple(Q(x, t) for x in s), tuple(Q(x, z) for x in y)


def test_every_settled_branch_form_equals_its_rationals():
    # the form of each branch, read before any rational is made, equals the
    # paper's settlement entry by entry, and so do the rationals read later;
    # the controls that edit rationals get their form from them
    rng = random.Random(3)
    cases = list(generate_suite(24, seed=3, n_range=(3, 8)))
    initial, profile, config = cases[0]
    money = tuple(Q(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(config.n))
    cases.append((Allocation(initial.shares, money), profile, config))
    cases.append(
        (
            Allocation.from_shares((Q(1, 2), ZERO, Q(1, 4), Q(1, 4))),
            BidProfile((Q(9), Q(7), Q(5), Q(3))),
            MbmConfig(4, 3),
        )
    )
    sizes = {config.n for _, _, config in cases}
    assert sizes == set(range(3, 9))
    engines = {kind: corrupted_engine(kind) for kind in CORRUPTION_KINDS}
    engines["real"] = run_expected
    for kind, engine in engines.items():
        for initial, profile, config in cases:
            for branch in engine(initial, profile, config).branches:
                final = branch.final_allocation
                read = _form_rationals(final)
                if kind in ("real", "price-next", "price-dip"):
                    assert not {"shares", "money"} & vars(final).keys()
                    assert read == _paper_settlement(initial, branch)
                assert read == (final.shares, final.money)
                assert all(type(x) is Q for x in final.shares + final.money)


def test_every_construction_path_makes_the_integer_form(worked):
    # the form is in the value when its constructor returns, equal to the
    # one over the least common denominators of its rationals
    initial, profile, config = worked
    settled = run_expected(initial, profile, config).high_branch.final_allocation
    money = (Q(7, 3), Q(-1, 4), ZERO)
    allocations = {
        "constructor": Allocation(initial.shares, money),
        "from_shares": Allocation.from_shares((Q(1, 2), Q(3, 10), Q(1, 5))),
        "replace": dataclasses.replace(initial, money=money),
        "replace settled": dataclasses.replace(settled),
        "replace on integers": dataclasses.replace(Allocation._from_form([2, 1], 3)),
    }
    profiles = {
        "constructor": BidProfile((Q(10), Q(5, 2), Q(2, 3))),
        "replace_bid": profile.replace_bid(2, Q(1, 7)),
        "replace": dataclasses.replace(profile, bids=(Q(3), Q(1, 6), ZERO)),
        "replace on integers": dataclasses.replace(BidProfile._from_form([20, 10, 4], 2)),
    }
    for path, value in allocations.items():
        assert "_form" in vars(value), path
        assert vars(value)["_form"] == (*_over_lcm(value.shares), *_over_lcm(value.money)), path
    for path, value in profiles.items():
        assert "_form" in vars(value), path
        assert vars(value)["_form"] == _over_lcm(value.bids), path


def test_values_built_on_integers_behave_as_built_from_rationals(worked):
    initial, profile, config = worked

    def settled():
        return run_expected(initial, profile, config).high_branch.final_allocation

    high = run_expected(initial, profile, config).high_branch
    twin = Allocation(*_paper_settlement(initial, high))
    assert settled() == twin and twin == settled()
    assert hash(settled()) == hash(twin)
    assert repr(settled()) == repr(twin)
    assert pickle.loads(pickle.dumps(settled())) == twin
    assert dataclasses.replace(settled(), money=twin.money) == twin
    assert dataclasses.replace(settled()).shares == twin.shares
    assert settled().n == 3
    bids = BidProfile._from_form([20, 10, 4], 2)
    assert "bids" not in vars(bids)
    assert bids.n == 3 and _bid_numerators(bids) == ((20, 10, 4), 2)
    for read in (lambda b: b, hash, repr, lambda b: pickle.loads(pickle.dumps(b))):
        assert read(BidProfile._from_form([20, 10, 4], 2)) == read(profile)
    assert dataclasses.replace(BidProfile._from_form([20, 10, 4], 2)) == profile
    assert BidProfile._from_form([20, 10, 4], 2).replace_bid(2, 1) == profile.replace_bid(2, 1)
    with pytest.raises(AttributeError, match="'Allocation' object has no attribute 'price'"):
        settled().price


def test_bid_profile_built_on_integers_rejects_negative_as_the_constructor():
    with pytest.raises(ValueError) as rationals:
        BidProfile((Q(3, 4), Q(-1, 2), Q(1, 4)))
    with pytest.raises(ValueError) as integers:
        BidProfile._from_form([3, -2, 1], 4)
    assert str(integers.value) == str(rationals.value) == "agent 1 bid -1/2 is negative"


def test_refusals_print_values_past_the_int_string_limit():
    # 10**5000 has more digits than str() prints by default: each refusal
    # names its value in full instead of failing on the digit limit
    big, digits = 10**5000, "1" + "0" * 5000
    bids = BidProfile((Q(10), Q(5), Q(2)))
    config = MbmConfig(3, 2)
    off_simplex = Allocation.from_shares((Q(1, 2), Q(1, 2), Q(1, big)))
    with pytest.raises(InvalidAllocation) as info:
        run_expected(off_simplex, bids, config)
    total = "1" + "0" * 4999 + "1/" + digits
    assert str(info.value) == f"shares sum to {total}, expected exactly 1"
    negative = Allocation.from_shares((Q(1, 2) + Q(1, big), Q(1, 2), Q(-1, big)))
    with pytest.raises(InvalidAllocation) as info:
        run_expected(negative, bids, config)
    assert str(info.value) == f"agent 2 has negative share -1/{digits}"
    with pytest.raises(ValueError) as info:
        BidProfile((Q(-1, big), Q(5), Q(2)))
    assert str(info.value) == f"agent 0 bid -1/{digits} is negative"


def test_empty_forms_are_the_empty_values():
    # both builders on integers give their empty value, as the constructors do;
    # the profile's once raised min()'s bare ValueError on an empty sequence
    for empty, built in (
        (BidProfile(()), BidProfile._from_form([], 1)),
        (Allocation((), ()), Allocation._from_form([], 1)),
    ):
        assert built == empty and hash(built) == hash(empty) and repr(built) == repr(empty)
        assert built.n == 0
    assert BidProfile._from_form(range(0), 7).bids == ()


# --- bid order and price -----------------------------------------------------


def test_rank_bids_already_sorted():
    assert rank_bids(BidProfile((Q(10), Q(5), Q(2)))) == (0, 1, 2)


def test_rank_bids_permutation():
    assert rank_bids(BidProfile((Q(2), Q(10), Q(5)))) == (1, 2, 0)


def test_rank_bids_ties_rejected():
    with pytest.raises(DuplicateBids) as info:
        rank_bids(BidProfile((Q(5), Q(5), Q(2))))
    assert info.value.pairs == [(0, 1)]


def test_rank_bids_needs_three_bids():
    with pytest.raises(InvalidConfig) as info:
        rank_bids(BidProfile((1, 2)))
    assert str(info.value) == "need at least 3 bids, got 2"


def test_rank_bids_orders_bids_descending():
    bids = [Q(3), Q(9), Q(1), Q(7)]
    order = rank_bids(BidProfile(bids))
    assert sorted(order) == [0, 1, 2, 3]
    ordered = [bids[a] for a in order]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


@given(st.data())
def test_others_readout_equals_the_filtered_order(data):
    # core._above against what it replaces: the movers filtered out of the
    # one order, then the prefix share masses of those left, at every rank
    n = data.draw(st.integers(3, 10))
    w = data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n, unique=True))
    a = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    moved = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    order = _bid_order(w)
    rest = [j for i, j in enumerate(order) if i not in moved]
    above = _masses(rest, a)
    for r in range(1, len(rest) + 1):
        assert _above(order, _masses(order, a), a, moved, r) == (rest[r - 1], above[r - 1])


@given(st.data())
def test_lone_readout_equals_the_moved_profile_ranked_in_full(data):
    # core._lone against the profile it reads: agent j alone bids x / k, the
    # others their bids, ranked in full (_bid_order), with the m_bar-th bid
    # and the _masses that _branches reads (H at m_bar, L at m_bar - 1). The
    # other bids b are read over k = 2, 4, 6 or 8, so x = k b - 1 and k b + 1
    # never tie, and reach every band that holds a bid: the seller's below the
    # others' m_bar-th bid (empty when that bid is 0), the threshold agent's
    # up to their (m_bar - 1)-th and the buyer's above it
    n = data.draw(st.integers(3, 8))
    w = data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n, unique=True))
    a = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    k = 2 * data.draw(st.integers(1, 4))
    order = _bid_order(w)
    mass = _masses(order, a)
    for p, j in enumerate(order):
        moved = [k * b for b in w]
        points = {x for i in range(n) if i != j for x in (moved[i] - 1, moved[i] + 1) if x >= 0}
        for m_bar in range(2, n):
            read = _lone(order, mass, a, w, p, m_bar)
            for x in points:
                moved[j] = x
                full = _bid_order(moved)
                ranked = _masses(full, a)
                want = (moved[full[m_bar - 1]], ranked[m_bar], ranked[m_bar - 1])
                assert read(x, k) == want, (w, a, j, m_bar, x, k)


def _price(shares, bids, config):
    return run_expected(Allocation.from_shares(shares), BidProfile(bids), config).high_branch.price


def test_threshold_price_examples():
    config = MbmConfig(n=3, m_bar=2)
    thirds = (Q(1, 3),) * 3
    assert _price(thirds, (Q(10), Q(5), Q(2)), config) == 5
    assert _price((Q(1, 4),) * 4, (Q(1), Q(3), Q(7), Q(9)), MbmConfig(4, 3)) == 3
    # re-evaluation after one agent raises her bid: price follows upward
    assert _price(thirds, (Q(10), Q(5), Q(6)), config) == 6


# --- branch probabilities ----------------------------------------------------


def _probabilities(initial, profile, config):
    expected = run_expected(initial, profile, config)
    return tuple(branch.branch_probability for branch in expected.branches)


def test_branch_probabilities_equal_shares():
    initial = Allocation.from_shares((Q(1, 3),) * 3)
    profile = BidProfile((Q(10), Q(5), Q(2)))
    assert _probabilities(initial, profile, MbmConfig(3, 2)) == (Q(2, 3), Q(1, 3))


def test_branch_probabilities_worked(worked):
    assert _probabilities(*worked) == (Q(4, 5), Q(1, 5))


def test_branch_probabilities_follow_bidders_not_shareholders(worked):
    initial, _, config = worked
    # agent 2 now bids highest and agent 0 lowest: the top-2 bidders hold 1/2
    profile = BidProfile((Q(2), Q(5), Q(10)))
    assert _probabilities(initial, profile, config) == (Q(1, 2), Q(1, 2))


# --- one branch at a time ----------------------------------------------------


def test_apply_branch_high_worked(worked):
    initial, profile, config = worked
    outcome = run_expected(initial, profile, config).high_branch
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
    outcome = run_expected(initial, profile, config).low_branch
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
        outcome = run_expected(initial, profile, MbmConfig(n, m_bar)).high_branch
        buyers = outcome.order[:m_bar]
        assert all(outcome.final_allocation.shares[a] == Q(1, m_bar) for a in buyers)


def test_apply_branch_degenerate_buyer_mass():
    initial = Allocation.from_shares((ZERO, ZERO, ONE))
    profile = BidProfile((Q(10), Q(5), Q(2)))
    with pytest.raises(DegenerateBuyerMass):
        run_expected(initial, profile, MbmConfig(3, 2))


def test_apply_branch_adds_to_existing_money(worked):
    _, profile, config = worked
    initial = Allocation(
        shares=(Q(1, 2), Q(3, 10), Q(1, 5)), money=(Q(7), Q(-1), Q(4))
    )
    outcome = run_expected(initial, profile, config).high_branch
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


def _top_shares_zeroed(initial, profile, k):
    """``initial`` with the k highest bidders' shares set to zero and the rest
    renormalized; None when nothing would be left."""
    top = set(rank_bids(profile)[:k])
    kept = [ZERO if i in top else s for i, s in enumerate(initial.shares)]
    total = sum(kept, ZERO)
    return Allocation.from_shares([s / total for s in kept]) if total else None


def test_branches_read_every_m_bar_off_one_kernel():
    # the welfare sweep builds _kernel once per n and runs _branches at every
    # m_bar: each must give the long-hand sums over the top m and m - 1
    # bidders, or raise the long-hand rule's DegenerateBuyerMass, high first
    agreed = raised = 0
    for initial, profile, config in generate_suite(200, seed=7):
        for k in (0, 1, 2):
            shares = _top_shares_zeroed(initial, profile, k)
            if shares is None:
                continue
            order, mass, a, d, _, _ = _kernel(shares, profile, config)
            for m in range(2, config.n):
                high = sum(a[i] for i in order[:m])
                low = sum(a[i] for i in order[: m - 1])
                if high == 0 or low == 0:
                    empty = m if high == 0 else m - 1
                    message = f"^all {empty} prospective buyers hold zero initial shares$"
                    with pytest.raises(DegenerateBuyerMass, match=message):
                        _branches(mass, d, m)
                    raised += 1
                else:
                    assert _branches(mass, d, m) == ((m, high, high), (m - 1, low, d - high))
                    agreed += 1
    assert agreed > 0 and raised > 0


def test_run_expected_equals_the_fraction_reference():
    # every field of both branches, on generated instances as they are and
    # with money over assorted denominators
    rng = random.Random(41)
    for base, profile, config in generate_suite(200, seed=41, n_range=(3, 8)):
        money = [Q(rng.randint(-50, 50), rng.choice((1, 3, 4, 7, 10))) for _ in base.shares]
        for initial in (base, Allocation(base.shares, money)):
            got = branch_fields(run_expected(initial, profile, config))
            assert got == fraction_run_expected(initial, profile, config)


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


# --- expected adjusted utilities: the real scorer and the outcome reader --------


def _scorer_utilities(initial, profile, config, valuations):
    # the deviation search's path for the real engine: the shares checked,
    # bids and values over one denominator e, agent 0's core._lone readout
    # at her own bid with its buyer masses checked, then _priced_ratios
    a, d = _share_numerators(initial, profile, config)
    n, m_bar = profile.n, config.m_bar
    scaled, e = _over_lcm(profile.bids + valuations.bids)
    w, values = scaled[:n], scaled[n:]
    order = _bid_order(w)
    u, high, low = _lone(order, _masses(order, a), a, w, order.index(0), m_bar)(w[0])
    _branches({m_bar: high, m_bar - 1: low}, d, m_bar)
    ratios = _priced_ratios(a, d, u, high, low, w, values, range(n))
    return tuple(Q(num, d * e * den) for num, den in ratios)


def _reader_utilities(initial, expected, valuations):
    # core._utilities over both weighted branches of the outcome
    holdings, branches = _holdings(initial), _weighted(expected)
    v, e = _over_lcm(valuations.bids)
    d = holdings[1]
    ratios = _utilities(holdings, branches, range(len(v)), v, e)
    return tuple(Q(num, d * e * den) for num, den in ratios)


def utility_table(initial, profile, config, values):
    """(expected, high, low), core's reading of every agent's adjusted
    utility: in expectation by the real scorer's readout, by ``_utilities`` over
    ``_weighted`` and by ``expected_adjusted_utility``, which must agree, and
    in each branch alone by ``_utilities`` at weight 1."""
    scored = _scorer_utilities(initial, profile, config, values)
    expected = run_expected(initial, profile, config)
    assert _reader_utilities(initial, expected, values) == scored
    assert _reference_utilities(initial, profile, config, values) == scored
    holdings = _holdings(initial)
    v, e = _over_lcm(values.bids)
    de = holdings[1] * e
    alone = (
        _utilities(holdings, ((1, 1, b.final_allocation),), range(len(v)), v, e)
        for b in expected.branches
    )
    return (scored, *(tuple(Q(num, de * den) for num, den in one) for one in alone))


def _reference_utilities(initial, profile, config, valuations):
    expected = run_expected(initial, profile, config)
    return tuple(
        expected_adjusted_utility(initial, expected, valuations, j) for j in range(config.n)
    )


def _without_two_stakes(initial, profile, config):
    # the threshold bidder and the lowest bidder hand their stakes to the top
    # bidder: both hold nothing, and both branches keep a positive buyer mass
    order = rank_bids(profile)
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
                expected = run_expected(start, profile, config)
                for values in (profile, valuations):
                    reference = _reference_utilities(start, profile, config, values)
                    assert _scorer_utilities(start, profile, config, values) == reference
                    assert _reader_utilities(start, expected, values) == reference
                    checked += 1
    assert checked > 500


def test_utilities_equal_the_fraction_reference():
    # core's utility readers against the reference's own Fraction utilities
    # on fraction_run_expected's branches, at the bids and at values moved
    # off them, with and without initial money
    rng = random.Random(41)
    for base, profile, config in generate_suite(200, seed=41, n_range=(3, 8)):
        money = [Q(rng.randint(-50, 50), rng.choice((1, 3, 4, 7, 10))) for _ in base.shares]
        moved = perturbed_profile(profile, rng)
        for initial in (base, Allocation(base.shares, money)):
            for values in (profile, moved):
                want = fraction_utility_table(initial, profile, config, values)
                assert utility_table(initial, profile, config, values) == want


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
            _scorer_utilities(initial, profile, config, profile)
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
    outcome = run_expected(initial, profile, config).high_branch
    # seller at v=2 cashes out 1/5 of the asset at price 5
    assert adjusted_utility(initial, outcome, profile, 2) == Q(3, 5)


def test_adjusted_utility_threshold_agent_zero_per_branch(worked):
    initial, profile, config = worked
    for outcome in run_expected(initial, profile, config).branches:
        assert adjusted_utility(initial, outcome, profile, 1) == 0


def test_adjusted_utility_identity_outcome_is_zero(worked):
    initial, profile, config = worked
    from mbm.core import MechanismOutcome

    identity = MechanismOutcome(
        realized_m=2,
        price=Q(5),
        branch_probability=ONE,
        final_allocation=initial,
        order=rank_bids(profile),
    )
    for agent in range(3):
        assert adjusted_utility(initial, identity, profile, agent) == 0


def test_expected_adjusted_utility_worked(worked):
    initial, profile, config = worked
    expected = run_expected(initial, profile, config)
    assert expected_adjusted_utility(initial, expected, profile, 0) == 1
    assert expected_adjusted_utility(initial, expected, profile, 1) == 0
    assert expected_adjusted_utility(initial, expected, profile, 2) == Q(3, 5)
    readout = _reader_utilities(initial, expected, profile)
    assert readout == tuple(
        expected_adjusted_utility(initial, expected, profile, j) for j in range(3)
    )


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
    threshold_agent = expected.high_branch.order[config.m_bar - 1]
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
    m_bar_bid = sorted(profile.bids, reverse=True)[config.m_bar - 1]
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
        buyers = branch.order[: branch.realized_m]
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
        order = branch.order
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
    order = expected.high_branch.order
    top_mass = sum((initial.shares[a] for a in order[: config.m_bar]), ZERO)
    assert expected.high_branch.branch_probability == top_mass
    assert expected.low_branch.branch_probability == 1 - top_mass


@given(inst=instances())
def test_threshold_agent_truthful_expected_utility_zero(inst):
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    threshold_agent = expected.high_branch.order[config.m_bar - 1]
    assert expected_adjusted_utility(initial, expected, profile, threshold_agent) == 0


@given(inst=instances(allow_zero_shares=True))
def test_zero_share_instances_either_degenerate_cleanly_or_hold(inst):
    # zero stakes are allowed; a branch whose prospective buyers hold
    # nothing must fail loudly, anything else obeys the usual invariants
    initial, profile, config = inst
    order = rank_bids(profile)
    high_mass = sum((initial.shares[a] for a in order[: config.m_bar]), ZERO)
    low_mass = sum((initial.shares[a] for a in order[: config.m_bar - 1]), ZERO)
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
    threshold_agent = order[config.m_bar - 1]
    assert expected_adjusted_utility(initial, expected, profile, threshold_agent) == 0
