"""Welfare analytics: dot products, closed forms, bounds, adversarial ratios.

The closed-form values asserted here were recomputed term by term in the
tests themselves (summation oracles), never copied from the engine.
"""

import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given

from mbm import (
    Allocation,
    BidProfile,
    DegenerateBuyerMass,
    InvalidAlpha,
    InvalidConfig,
    MbmConfig,
    SweepRow,
    efficiency_loss_instance,
    expected_mbm_welfare,
    run_expected,
    social_welfare,
    sweep_point,
    uniform_grid_welfare,
    welfare_report,
    welfare_sweep,
)
from mbm.rational import ONE, ZERO, Rational as Q
from mbm import welfare
from mbm.suites import generate_suite
from mbm.welfare import WelfareReport, uniform_grid_instance, uniform_grid_valuations

from references import fraction_expected_welfare, fraction_sweep_row, fraction_welfare_report
from strategies import instances


# --- social welfare -----------------------------------------------------------


def test_social_welfare_worked_dot_product(worked):
    initial, profile, _ = worked
    assert social_welfare(initial, profile) == Q(69, 10)


def test_social_welfare_rejects_missized_valuations(worked):
    # zip would drop the extra valuation, or the share without one
    initial, profile, _ = worked
    for bids, size in ((profile.bids + (Q(1),), 4), (profile.bids[:2], 2)):
        with pytest.raises(InvalidConfig, match=f"3 shares, valuations have {size}"):
            social_welfare(initial, BidProfile(bids))


def test_social_welfare_whole_asset_to_top_is_first_best(worked):
    _, profile, _ = worked
    top_only = Allocation.from_shares((ONE, ZERO, ZERO))
    assert social_welfare(top_only, profile) == max(profile.bids) == 10
    # the top value need not be agent 0's, nor have the largest denominator
    thirds = Allocation.from_shares((Q(1, 3),) * 3)
    bids = BidProfile((Q(2), Q(21, 2), Q(31, 3)))
    assert welfare_report(thirds, bids, MbmConfig(3, 2)).first_best == Q(21, 2)


def test_social_welfare_uniform_grid_equal_shares_mean():
    for n in (3, 7, 12):
        initial = Allocation.from_shares((Q(1, n),) * n)
        profile = uniform_grid_valuations(n)
        # arithmetic mean of 1/n, 2/n, ..., 1
        assert social_welfare(initial, profile) == Q(n + 1, 2 * n)


# --- expected welfare -----------------------------------------------------------


def test_expected_welfare_worked_frozen(worked):
    initial, profile, config = worked
    # independent route: probability-weighted dot products, by hand
    high = Q(5, 8) * 10 + Q(3, 8) * 5  # 65/8
    low = Q(10)
    expected = Q(4, 5) * high + Q(1, 5) * low
    assert expected == Q(17, 2)
    assert expected_mbm_welfare(initial, profile, config) == Q(17, 2)
    assert expected > social_welfare(initial, profile)  # 17/2 > 69/10


def test_expected_welfare_is_branch_weighted_welfare_of_engine_outcomes():
    # expected_mbm_welfare reads welfare straight off the engine's integer
    # numerators; it must equal the probability-weighted welfare of the
    # final allocations run_expected actually returns
    points = generate_suite(300, seed=20240817, n_range=(3, 8))
    for n in (4, 10, 57, 200):
        points += [uniform_grid_instance(n, m_bar) for m_bar in range(2, n)]
    for initial, valuations, config in points:
        expected = run_expected(initial, valuations, config)
        weighted = sum(
            (
                branch.branch_probability
                * social_welfare(branch.final_allocation, valuations)
                for branch in expected.branches
            ),
            ZERO,
        )
        assert expected_mbm_welfare(initial, valuations, config) == weighted


def test_welfare_report_worked(worked):
    initial, profile, config = worked
    report = welfare_report(initial, profile, config)
    assert report.initial_welfare == Q(69, 10)
    assert report.expected_mbm_welfare == Q(17, 2)
    assert report.first_best == 10
    assert report.preservation_ratio == Q(17, 20)


@given(inst=instances())
def test_expected_welfare_never_below_initial(inst):
    initial, profile, config = inst
    assert expected_mbm_welfare(initial, profile, config) >= social_welfare(
        initial, profile
    )


@given(inst=instances(min_n=4, max_n=8))
def test_expected_welfare_weakly_increases_as_m_bar_decreases(inst):
    initial, profile, _ = inst
    n = initial.n
    values = [
        expected_mbm_welfare(initial, profile, MbmConfig(n, m_bar))
        for m_bar in range(2, n)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


@given(inst=instances())
def test_branch_welfare_is_share_weighted_average_of_owner_values(inst):
    # proportional scaling makes each branch's welfare the initial-share
    # weighted average of the remaining owners' valuations
    initial, profile, config = inst
    expected = run_expected(initial, profile, config)
    for branch in expected.branches:
        order = branch.order[: branch.realized_m]
        mass = sum((initial.shares[a] for a in order), ZERO)
        weighted = sum((initial.shares[a] * profile.bids[a] for a in order), ZERO)
        assert social_welfare(branch.final_allocation, profile) == weighted / mass


@given(inst=instances())
def test_preservation_ratio_in_unit_interval(inst):
    initial, profile, config = inst
    report = welfare_report(initial, profile, config)
    assert 0 < report.preservation_ratio <= 1
    assert report.expected_mbm_welfare >= report.initial_welfare


# --- equal shares, uniform grid closed forms -------------------------------------


def test_uniform_grid_instance_matches_grid():
    initial, valuations, config = uniform_grid_instance(4, 2)
    assert initial.shares == (Q(1, 4),) * 4
    assert valuations.bids == (ONE, Q(3, 4), Q(1, 2), Q(1, 4))
    assert config.m_bar == 2


def test_uniform_grid_instance_equals_its_rational_construction():
    # built on integers, field by field and form by form as from rationals
    for n in (3, 4, 7, 12, 60):
        for m_bar in (2, n - 1):
            initial, valuations, config = uniform_grid_instance(n, m_bar)
            shares = Allocation.from_shares((Q(1, n),) * n)
            bids = BidProfile(tuple(Q(n - i, n) for i in range(n)))
            assert (initial.shares, initial.money) == (shares.shares, shares.money)
            assert valuations.bids == bids.bids and config == MbmConfig(n, m_bar)
            assert initial._form == shares._form
            w, e = valuations._form
            assert (list(w), e) == bids._form


def test_uniform_grid_needs_more_than_two_agents():
    # n = 0 once divided by zero; every n <= 2 is refused by the config
    for n in (0, 1, 2):
        with pytest.raises(InvalidConfig, match=f"^need more than 2 agents, got n={n}$"):
            uniform_grid_instance(n, 2)
    assert uniform_grid_instance(3, 2)[0].shares == (Q(1, 3),) * 3
    assert [uniform_grid_valuations(n).bids for n in range(4)] == [
        (), (ONE,), (ONE, Q(1, 2)), (ONE, Q(2, 3), Q(1, 3)),
    ]


def uniform_grid_prefix_sums(n, m_bar):
    """The closed forms of the top m_bar and top m_bar - 1 grid valuations'
    sums: m_bar/n * (2n - m_bar + 1)/2 and (m_bar - 1)/n * (2n - m_bar + 2)/2."""
    return (
        Q(m_bar, n) * Q(2 * n - m_bar + 1, 2),
        Q(m_bar - 1, n) * Q(2 * n - m_bar + 2, 2),
    )


def uniform_grid_limit(alpha):
    """The closed form's large-n limit, (2 - alpha)/2."""
    return (2 - alpha) / 2


def test_prefix_sums_match_term_by_term_summation():
    for n in range(3, 40):
        values = [Q(n - i, n) for i in range(n)]  # v_1 = 1 down to v_n = 1/n
        for m_bar in range(2, n):
            by_formula = uniform_grid_prefix_sums(n, m_bar)
            by_summation = (
                sum(values[:m_bar], ZERO),
                sum(values[: m_bar - 1], ZERO),
            )
            assert by_formula == by_summation


def test_prefix_sums_named_values():
    assert uniform_grid_prefix_sums(4, 2) == (Q(7, 4), Q(1))
    assert uniform_grid_prefix_sums(10, 3) == (Q(27, 10), Q(19, 10))


def test_prefix_sums_two_owner_case_any_n():
    for n in (3, 5, 11, 40):
        top, almost = uniform_grid_prefix_sums(n, 2)
        assert top == Q(2 * n - 1, n)  # 1 + (n-1)/n
        assert almost == 1


def test_closed_form_named_value():
    value = uniform_grid_welfare(10, Q(1, 2))
    assert value == Q(3, 4) + Q(3, 40) == Q(33, 40)


def test_closed_form_rejects_bad_alpha():
    with pytest.raises(InvalidAlpha):
        uniform_grid_welfare(10, Q(1, 3))  # 10/3 owners is not an integer
    with pytest.raises(InvalidAlpha):
        uniform_grid_welfare(10, Q(1, 10))  # one owner: below the domain
    with pytest.raises(InvalidAlpha):
        uniform_grid_welfare(10, ONE)  # full retention: above the domain
    with pytest.raises(InvalidAlpha):
        sweep_point(10, "1/3")


def test_closed_form_equals_engine_small_case():
    # n = 4, alpha = 1/2: closed form 15/16 must equal the engine on the
    # matching equal-shares instance
    assert uniform_grid_welfare(4, Q(1, 2)) == Q(15, 16)
    initial, valuations, config = uniform_grid_instance(4, 2)
    assert expected_mbm_welfare(initial, valuations, config) == Q(15, 16)


def test_closed_form_equals_engine_on_small_sweep():
    for n in range(4, 13):
        for alpha in [Q(k, n) for k in range(2, n)]:
            row = sweep_point(n, str(alpha))
            assert row.alpha == alpha and row.m_bar == alpha * n
            assert row.closed_form == row.engine == uniform_grid_welfare(n, alpha)
            assert row.preservation_ratio == row.engine  # first-best is 1 here
            assert row.limit_gap == row.closed_form - uniform_grid_limit(alpha)


def test_closed_form_always_above_half():
    for n in (4, 10, 50, 200):
        for alpha in [Q(k, n) for k in range(2, n)]:
            assert uniform_grid_welfare(n, alpha) > Q(1, 2)


def test_limit_identity_and_range():
    for n in (4, 10, 1000):
        for alpha in [Q(k, n) for k in range(2, n)]:
            gap = uniform_grid_welfare(n, alpha) - uniform_grid_limit(alpha)
            assert gap == (2 - alpha) / (2 * n)
            assert Q(1, 2) < uniform_grid_limit(alpha) < 1


def test_closed_form_affine_in_alpha_with_known_slope():
    for n in (5, 12, 60):
        alphas = [Q(k, n) for k in range(2, n)]
        slope = Q(-(n + 1), 2 * n)
        for a1, a2 in zip(alphas, alphas[1:]):
            delta = uniform_grid_welfare(n, a2) - uniform_grid_welfare(n, a1)
            assert delta == slope * (a2 - a1)


def test_welfare_sweep_filters_invalid_alphas():
    rows, skipped = welfare_sweep([10], alphas=[Q(1, 2), Q(1, 3)])
    assert len(rows) == 1 and rows[0].alpha == Q(1, 2)
    assert [str(exc) for exc in skipped] == [
        "alpha=1/3 with n=10: alpha * n is not an integer"
    ]
    rows, skipped = welfare_sweep([6])
    assert [r.m_bar for r in rows] == [2, 3, 4, 5]
    assert skipped == []


def test_welfare_sweep_equals_general_engine_at_every_point():
    # every row against the general engine on its own instance: the
    # kernel-level welfare and the branch-weighted welfare of the outcomes
    rows, skipped = welfare_sweep(range(3, 41))
    assert skipped == [] and len(rows) == sum(n - 2 for n in range(3, 41))
    for row in rows:
        initial, valuations, config = uniform_grid_instance(row.n, row.m_bar)
        expected = run_expected(initial, valuations, config)
        outcomes = sum(
            (b.branch_probability * social_welfare(b.final_allocation, valuations)
             for b in expected.branches),
            ZERO,
        )
        assert row.engine == expected_mbm_welfare(initial, valuations, config)
        assert row.engine == outcomes == row.closed_form, (row.n, row.alpha)
        assert row.preservation_ratio == row.engine / max(valuations.bids)


def test_welfare_sweep_error_and_skip_order():
    with pytest.raises(InvalidConfig):
        welfare_sweep([2])
    rows, skipped = welfare_sweep([2, 4], ["1/2"])
    assert [str(exc) for exc in skipped] == [
        "alpha=1/2 with n=2: alpha must lie in {2/n, ..., (n-1)/n}"
    ]
    assert all(isinstance(exc, InvalidAlpha) for exc in skipped)
    assert [(r.n, r.m_bar, r.engine) for r in rows] == [(4, 2, Q(15, 16))]


def test_an_alpha_past_the_int_string_limit_is_skipped():
    # the refusal prints alpha's 5,001-digit denominator in full
    alpha = Q(1, 10**5000)
    rows, skipped = welfare_sweep([5], [alpha])
    assert rows == [] and [type(exc) for exc in skipped] == [InvalidAlpha]
    digits = "1" + "0" * 5000
    assert str(skipped[0]) == f"alpha=1/{digits} with n=5: alpha * n is not an integer"


def test_sweep_row_contract():
    # a row built on integers is the row built from its rationals: equal,
    # with equal hash and repr, through replace and pickle; its rationals
    # are made on read, each a Fraction, and m_bar is an int
    def sweep():
        return welfare_sweep([4, 9, 60])[0] + welfare_sweep([9, 12], ["1/3", Q(3, 4)])[0]

    built = [fraction_sweep_row(row.n, row.alpha) for row in sweep()]
    assert len(built) == 2 + 7 + 58 + 1 + 2
    for read in (lambda r: r, hash, repr, lambda r: pickle.loads(pickle.dumps(r))):
        assert [read(row) for row in sweep()] == [read(row) for row in built]
    for row, twin in zip(sweep(), built):
        assert set(vars(row)) == {"n", "m_bar", "_form"}
        assert dataclasses.replace(row) == twin == dataclasses.replace(twin)
        assert all(type(getattr(row, name)) is Fraction for name in (
            "alpha", "closed_form", "engine", "preservation_ratio", "limit_gap"))
        assert type(row.n) is type(row.m_bar) is int
    named = SweepRow(10, Q(1, 2), 5, Q(33, 40), Q(33, 40), Q(33, 40), Q(3, 40))
    assert sweep_point(10, "1/2") == named and repr(sweep_point(10, "1/2")) == repr(named)
    # a row built by hand takes its form from any rational, ints included
    assert SweepRow(3, 1, 2, 1, ONE, 1, 0)._form == ((1, 1),) * 4 + ((0, 1),)
    moved = dataclasses.replace(sweep_point(10, "1/2"), engine=Q(2, 3))
    assert moved._form[2] == (2, 3) and moved.engine == Q(2, 3)


def fraction_sweep(n_values, alphas):
    """(rows, skipped messages) of ``fraction_sweep_row`` in sweep order."""
    rows, skipped = [], []
    for n in n_values:
        for alpha in [Q(k, n) for k in range(2, n)] if alphas is None else alphas:
            try:
                rows.append(fraction_sweep_row(n, alpha))
            except InvalidAlpha as exc:
                skipped.append(str(exc))
    return rows, skipped


def test_sweep_rows_equal_the_fraction_reference():
    # prefix sums and integer closed forms against each row summed in
    # rationals, every field of every row
    rows, skipped = welfare_sweep(range(3, 121))
    assert skipped == []
    assert rows == fraction_sweep(range(3, 121), None)[0]
    assert all(type(row.m_bar) is int for row in rows)


def test_explicit_alpha_sweep_equals_the_fraction_reference():
    alphas = ["1/2", "1/3", Q(2, 5), "3/4", "0.5", "1/7", "2/3", Q(9, 10), "1", "0"]
    rows, skipped = welfare_sweep(range(2, 41), alphas)
    reference_rows, reference_skipped = fraction_sweep(range(2, 41), alphas)
    assert rows == reference_rows
    assert [str(exc) for exc in skipped] == reference_skipped
    assert (len(rows), len(skipped)) == (89, 301)
    assert all(type(row.m_bar) is int for row in rows)


class NotInt:
    """An integer that is not an ``int``, as a ``Fraction``'s part can be."""

    def __init__(self, value):
        self.value = value

    def __rmul__(self, other):
        return NotInt(other * self.value)

    def __mod__(self, other):
        return NotInt(self.value % other.value)

    def __floordiv__(self, other):
        return NotInt(self.value // other.value)

    def __le__(self, other):
        return self.value <= other

    def __ge__(self, other):
        return self.value >= other

    def __bool__(self):
        return bool(self.value)

    def __index__(self):
        return self.value


def test_m_bar_is_an_int_when_the_ratio_parts_are_not(monkeypatch):
    # a Fraction built from another numbers.Rational can keep non-int Integral
    # parts, and MbmConfig takes m_bar only as int
    monkeypatch.setattr(
        welfare, "as_ratio", lambda value: tuple(map(NotInt, Q.as_integer_ratio(value)))
    )
    m_bar = welfare._m_bar_from_alpha(10, Q(3, 10))
    assert (type(m_bar), m_bar) == (int, 3)
    assert uniform_grid_instance(10, m_bar)[2] == MbmConfig(n=10, m_bar=3)
    assert uniform_grid_welfare(10, "3/10") == Q(187, 200)
    with pytest.raises(InvalidAlpha, match=r"alpha \* n is not an integer"):
        welfare._m_bar_from_alpha(10, Q(1, 3))
    with pytest.raises(InvalidAlpha, match=r"alpha must lie in"):
        welfare._m_bar_from_alpha(10, Q(1, 10))


def with_money(initial):
    # nonzero initial balances, which welfare must ignore
    money = tuple(Q(7 * i - 5, 3) for i in range(initial.n))
    return Allocation(initial.shares, money)


def test_expected_welfare_and_report_equal_the_fraction_reference():
    for initial, valuations, config in generate_suite(200, seed=7):
        for start in (initial, with_money(initial)):
            expected = fraction_expected_welfare(start, valuations, config)
            best = max(valuations.bids)
            assert expected_mbm_welfare(start, valuations, config) == expected
            assert welfare_report(start, valuations, config) == WelfareReport(
                initial_welfare=social_welfare(start, valuations),
                expected_mbm_welfare=expected,
                first_best=best,
                preservation_ratio=expected / best,
            )


def report_fields(initial, valuations, config):
    """``welfare_report``'s fields in ``fraction_welfare_report``'s shape."""
    report = welfare_report(initial, valuations, config)
    return (report.initial_welfare, report.expected_mbm_welfare, report.first_best,
            report.preservation_ratio)


def test_welfare_report_equals_the_branch_reference():
    # prefix sums, the two-branch welfare, first-best and the preservation
    # ratio against welfare summed over fraction_run_expected's final shares
    rng = random.Random(41)
    for base, valuations, config in generate_suite(200, seed=41, n_range=(3, 8)):
        money = [Q(rng.randint(-50, 50), rng.choice((1, 3, 4, 7, 10))) for _ in base.shares]
        for initial in (base, Allocation(base.shares, money)):
            want = fraction_welfare_report(initial, valuations, config)
            assert report_fields(initial, valuations, config) == want


def test_zero_buyer_mass_raises_the_fraction_reference_message():
    bids = BidProfile((Q(4), Q(3), Q(2), Q(1)))
    config = MbmConfig(n=4, m_bar=2)
    high_empty = (ZERO, ZERO, Q(1, 2), Q(1, 2))  # both top bidders hold nothing
    low_empty = (ZERO, Q(1, 2), Q(1, 4), Q(1, 4))  # only the top bidder does
    for shares in (high_empty, low_empty):
        initial = Allocation.from_shares(shares)
        with pytest.raises(DegenerateBuyerMass) as reference:
            fraction_expected_welfare(initial, bids, config)
        for fn in (expected_mbm_welfare, welfare_report):
            with pytest.raises(DegenerateBuyerMass) as info:
                fn(initial, bids, config)
            assert str(info.value) == str(reference.value)


# --- arbitrarily small preservation ratio ----------------------------------------


@pytest.mark.parametrize("epsilon", [Q(1, 10), Q(1, 100), Q(1, 1000)])
def test_efficiency_loss_instance_beats_target(epsilon):
    initial, valuations, config = efficiency_loss_instance(epsilon)
    report = welfare_report(initial, valuations, config)
    assert report.first_best == 1
    assert report.preservation_ratio < epsilon
    assert report.expected_mbm_welfare >= report.initial_welfare


def test_efficiency_loss_instance_rejects_bad_epsilon():
    for bad in (Q(0), Q(1), Q(3, 2), Q(-1, 10)):
        with pytest.raises(ValueError):
            efficiency_loss_instance(bad)
