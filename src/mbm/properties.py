"""Brute-force oracles for the mechanism's strategic and accounting claims.

Each oracle re-derives one property from first principles on a concrete
instance -- exact summation, exhaustive single-agent deviation search,
coalition enumeration over rank patterns or grids -- and returns a
PropertyReport instead of raising: a violated verdict always carries a
reproducible witness.

Deviation search rests on one structural fact. Fixing everyone else's bids,
an agent's expected adjusted utility as a function of her own bid is
piecewise constant with breakpoints only at the other agents' bids: between
breakpoints neither her rank nor any order statistic of the full profile
changes, and on the piece where she holds rank m_bar the branch weighting
cancels the price dependence identically. One tie-free sample per piece
therefore decides the whole piece, so the grid has one fixed rule (see
``DeviationGrid``): near-breakpoint samples guard the piece boundaries,
and the tests re-check verdicts on a 10x refined grid of their own.

Every oracle accepts an ``engine`` hook (defaulting to the real mechanism)
so deliberately corrupted variants can be run through the same verdict
logic as negative controls; see ``corrupted_engine``. The sp search is
one loop for every engine; the group-sp search decides a coalition on its
rank patterns where it can (below) and walks its grid product otherwise.
An instance is set up once: the share numerators a / d from one
``_simplex_numerators`` call, and the fixed bids (valuations and the
others' bids) as integers over one common denominator e. ``_grid`` builds
every deviating agent's candidates on those integers, over 1000 * e, so
every bid that can occur is an integer over that one denominator, per
instance for both searches. A case is then an integer bid list, and the
engine enters only through the instance's scorer (``_scorer``), which
gives each member's utility times d and the bids' denominator as an
integer ratio, compared with the truthful one by cross-multiplication.
For the real mechanism the scorer is ``core._utility_ratios``, the
formula ``expected_adjusted_utilities`` also reads; it ranks the bids and
checks the buyer masses as ``run_expected`` does, so a degenerate case
raises there too. Any other engine, including a wrapper around the real
one, is scored on the profile the integers stand for, through
``expected_adjusted_utility`` per member. With the real mechanism, a
BidProfile and rationals are built only for a violation's witness.

Coalitions have a sharper fact for the real mechanism. With the
non-members' bids fixed, every member's utility depends only on the rank
pattern, the order of all n bids: the member at rank m_bar gets 0, and
otherwise the price is a non-member's fixed bid while H, L and each
member's side follow from the order. So when every share is positive,
group-sp scores one point per pattern, n! / (n - k)! of them for a
coalition of k, instead of every grid combination; a coalition with a
member whose truthful utility is negative, any other engine, and
instances with a zero share (whose DegenerateBuyerMass comes from a
particular grid case) keep the grid walk. Either way a holding verdict's
``cases`` counts the grid deviations covered. Before any coalition, the
real mechanism's scorer is checked against ``run_expected`` at the
truthful bids, so the patterns are read off the engine's formula.

Price monotonicity is decided on the same pieces: between consecutive
other bids the real engine's price is constant or the mover's bid, and the
``price-*`` controls' prices are affine, so three points per piece and the
limits at its ends decide the lemma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .core import (
    Allocation,
    BidProfile,
    ExpectedOutcome,
    MbmConfig,
    _bid_order,
    _buyer_masses,
    _check_sizes,
    _over_lcm,
    _reject_ties,
    _share_numerators,
    _simplex_numerators,
    _utility_ratios,
    adjusted_utility,
    expected_adjusted_utility,
    run_expected,
)
from .errors import InvalidArgument, SearchBudgetExceeded
from .rational import ZERO, Rational, as_ratio, rational_str

DEFAULT_SEARCH_BUDGET = 10**6


def _check_budget(budget: int) -> None:
    """Raise InvalidArgument for a negative search budget."""
    if budget < 0:
        raise InvalidArgument(f"search budget must not be negative, got {budget}")


@dataclass(frozen=True)
class DeviationGrid:
    """Tie-free candidate bids for one deviating agent, as rationals.

    ``_grid`` holds the one rule and builds the candidates on the instance's
    integers, over 1000 times the bids' common denominator. Every rank the
    deviator can attain is reachable through some candidate; a 10x
    refinement of this grid lives in the tests as a cross-check.
    """

    candidates: tuple


def _others(w, agent: int) -> list:
    """The bids w without ``agent``'s; DuplicateBids on a tie among them."""
    indexed = [(j, b) for j, b in enumerate(w) if j != agent]
    _reject_ties(indexed)
    return [b for _, b in indexed]


def _grid(others) -> list:
    """Sorted deviation candidates over 1000 * e against distinct integer bids over e.

    With g the smallest gap between consecutive other-bids: each gap's
    midpoint 500 (lo + hi), 1000 b - g and 1000 b + g for each other-bid b
    (a thousandth of that gap either side), and half the lowest other-bid
    o_1, 500 o_1, when o_1 > 0 but 1000 o_1 - g is negative. Negative
    candidates and the other-bids' own 1000 b are dropped.
    """
    others = sorted(others)
    gaps = list(zip(others, others[1:]))
    g = min(hi - lo for lo, hi in gaps)
    candidates = {500 * (lo + hi) for lo, hi in gaps}
    for b in others:
        candidates.add(1000 * b - g)
        candidates.add(1000 * b + g)
    low = others[0]
    if 0 < 1000 * low < g:
        # keep the below-minimum piece reachable when the step would go negative
        candidates.add(500 * low)
    candidates.difference_update(1000 * b for b in others)
    return sorted(c for c in candidates if c >= 0)


def deviation_grid(profile: BidProfile, agent: int) -> DeviationGrid:
    """``_grid`` for ``agent`` against the other bids in ``profile``, as rationals."""
    w, e = _over_lcm(profile.bids)
    return DeviationGrid(tuple(Rational(c, 1000 * e) for c in _grid(_others(w, agent))))


@dataclass(frozen=True)
class Witness:
    """Reproducible evidence of a violation."""

    detail: str
    agent: int | None = None
    coalition: tuple | None = None
    bids: tuple | None = None
    utility_delta: Rational | None = None


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of one oracle on one instance."""

    name: str
    instance: str
    holds: bool
    cases: int
    witness: Witness | None = None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a violated verdict must carry a witness")


def _violation(
    name: str, instance: str, cases: int, detail: str, **witness_fields
) -> PropertyReport:
    """A violated verdict whose witness carries ``detail`` and ``witness_fields``."""
    witness = Witness(detail=detail, **witness_fields)
    return PropertyReport(name, instance, holds=False, cases=cases, witness=witness)


def describe_instance(
    initial: Allocation, profile: BidProfile, config: MbmConfig
) -> str:
    shares = ",".join(map(rational_str, initial.shares))
    bids = ",".join(map(rational_str, profile.bids))
    return f"n={config.n} m_bar={config.m_bar} shares=[{shares}] bids=[{bids}]"


def _scorer(engine, initial, valuations, config, a, d):
    """The instance's ``score(w, e, values, agents)``, the searches' one engine seam.

    Bids w and true values are integers over one common denominator e, and
    shares are a[i] / d. The score yields each of ``agents``' expected
    adjusted utility times d * e as (numerator, denominator), denominator
    positive. The real engine is scored by ``_utility_ratios``; any other
    runs the profile the integers stand for, and its outcome is read
    through ``expected_adjusted_utility`` against ``valuations``, one agent
    at a time as the caller consumes them.
    """
    if engine is run_expected:
        m_bar = config.m_bar
        return lambda w, e, values, agents: _utility_ratios(a, d, m_bar, w, values, agents)
    memo = {}  # (x, e) -> x / e: the searches repeat a few bids many times

    def score(w, e, values, agents):
        bids = []
        for x in w:
            b = memo.get((x, e))
            if b is None:
                b = memo[x, e] = Rational(x, e)
            bids.append(b)
        expected = engine(initial, BidProfile(tuple(bids)), config)
        scale = d * e
        for j in agents:
            yield as_ratio(expected_adjusted_utility(initial, expected, valuations, j) * scale)

    return score


def check_budget_balance(
    initial: Allocation,
    profile: BidProfile,
    config: MbmConfig,
    engine=run_expected,
) -> PropertyReport:
    """Total shares and total money are conserved exactly in both branches."""
    name = "budget-balance"
    instance = describe_instance(initial, profile, config)
    expected = engine(initial, profile, config)
    share_total = sum(initial.shares, ZERO)
    cases = 0
    for branch in expected.branches:
        final = branch.final_allocation
        cases += 2
        final_shares = sum(final.shares, ZERO)
        if final_shares != share_total:
            return _violation(
                name,
                instance,
                cases,
                f"branch m={branch.realized_m}: final shares total "
                f"{final_shares}, initial total {share_total}",
                bids=profile.bids,
            )
        delta_total = sum(final.money, ZERO) - sum(initial.money, ZERO)
        if delta_total != 0:
            return _violation(
                name,
                instance,
                cases,
                f"branch m={branch.realized_m}: payments sum to {delta_total}, expected 0",
                bids=profile.bids,
            )
    return PropertyReport(name, instance, holds=True, cases=cases)


def check_individual_rationality(
    initial: Allocation,
    valuations: BidProfile,
    config: MbmConfig,
    engine=run_expected,
) -> PropertyReport:
    """Under truthful bids no agent loses, branch by branch (hence in expectation)."""
    name = "individual-rationality"
    instance = describe_instance(initial, valuations, config)
    expected = engine(initial, valuations, config)
    cases = 0
    for branch in expected.branches:
        for agent in range(config.n):
            cases += 1
            gain = adjusted_utility(initial, branch, valuations, agent)
            if gain < 0:
                return _violation(
                    name,
                    instance,
                    cases,
                    f"agent {agent} loses {-gain} in branch m={branch.realized_m}",
                    agent=agent,
                    bids=valuations.bids,
                    utility_delta=gain,
                )
    return PropertyReport(name, instance, holds=True, cases=cases)


def _pricer(engine, initial, config):
    """The instance's ``price(w, e)``: the high branch's price at bids w / e, times e.

    The real engine's is the bid ranked m_bar on the integer list w, with the
    buyer masses checked as ``run_expected`` checks them when a share is
    zero; any other engine runs the profile w / e.
    """
    if engine is run_expected:
        a, _ = _simplex_numerators(initial.shares)
        m_bar = config.m_bar
        if min(a) > 0:
            return lambda w, e: w[_bid_order(w)[m_bar - 1]]

        def readout(w, e):
            order = _bid_order(w)
            _buyer_masses(order, a, m_bar)
            return w[order[m_bar - 1]]

        return readout

    def price(w, e):
        bids = BidProfile(tuple(Rational(x, e) for x in w))
        return engine(initial, bids, config).high_branch.price * e

    return price


def check_price_monotonicity(
    initial: Allocation,
    profile: BidProfile,
    config: MbmConfig,
    engine=run_expected,
) -> PropertyReport:
    """Raising one bid never lowers the price; lowering one never raises it.

    Decided on pieces: with the others' bids fixed, an agent's pieces are
    [0, o_1) when o_1 > 0, each gap between other bids, and (o, 2 o) above
    the highest, o. With the bids over 4 e, e their common denominator, a
    piece's quarter points x_1 < x_2 < x_3 are integers; with p_k the price
    at x_k, the piece must be affine (p_1 + p_3 == 2 p_2), not fall
    (p_2 >= p_1), and start (2 p_1 - p_2) no lower than the previous piece
    ends (2 p_3 - p_2); anything else is a violation, never a pass.
    ``cases`` counts the prices taken.

    The real engine's readout is first tied to ``run_expected`` at the
    truthful bids, a mismatch being a violation there. A witness names the
    agent and the profile at her highest offending bid, and its detail
    lists those bids with their prices; a jump is shown by two bids either
    side of the boundary.
    """
    name = "price-monotonicity"
    instance = describe_instance(initial, profile, config)
    # the truthful run goes first, so its errors come before the pieces'
    truthful = engine(initial, profile, config).high_branch.price
    price = _pricer(engine, initial, config)
    fixed, e = _over_lcm(profile.bids)
    if engine is run_expected and price(fixed, e) != truthful * e:
        return _violation(
            name,
            instance,
            1,
            f"the readout gives price {Rational(price(fixed, e), e)} at the "
            f"truthful bids, the engine {truthful}",
            bids=profile.bids,
        )

    def violation(cases, agent, e, points, reason):
        # points: the agent's bids over e, ascending, each with its price times e
        bids = ", ".join(str(Rational(x, e)) for x, _ in points)
        prices = ", ".join(str(Rational(p) / e) for _, p in points)
        return _violation(
            name,
            instance,
            cases,
            f"agent {agent} bids {bids} get prices {prices}: {reason}",
            agent=agent,
            bids=profile.replace_bid(agent, Rational(points[-1][0], e)).bids,
        )

    e *= 4
    cases = 0
    for agent in range(config.n):
        others = _others(fixed, agent)
        w = [4 * x for x in fixed]
        bounds = sorted({0, *others}) + [2 * max(others)]
        before = None  # the previous piece's quarter step, rise per step, right limit
        for lo, hi in zip(bounds, bounds[1:]):
            h = hi - lo
            points = []
            for x in (4 * lo + h, 4 * lo + 2 * h, 4 * lo + 3 * h):
                w[agent] = x
                points.append((x, price(w, e)))
            cases += 3
            p1, p2, p3 = (p for _, p in points)
            if p1 + p3 != 2 * p2:
                return violation(cases, agent, e, points, "not affine on one piece")
            if p2 < p1:
                return violation(cases, agent, e, points[:2], "the price falls")
            left = 2 * p1 - p2
            if before is not None and left < before[2]:
                # a jump down at lo: bids m / 2^k either side, k the least at
                # which both pieces' lines show the drop
                h_left, rise_left, right = before
                m = min(h, h_left)
                climb = ((p2 - p1) * h_left + rise_left * h) * m
                drop = (right - left) * h * h_left
                k = 0
                while climb >= drop * 2**k:
                    k += 1
                w = [x << k for x in w]
                near = []
                for x in ((4 * lo << k) - m, (4 * lo << k) + m):
                    w[agent] = x
                    near.append((x, price(w, e << k)))
                return violation(cases, agent, e << k, near, "the price falls")
            before = (h, p3 - p2, 2 * p3 - p2)
    return PropertyReport(name, instance, holds=True, cases=cases)


def check_strategyproofness(
    initial: Allocation,
    valuations: BidProfile,
    config: MbmConfig,
    others_profile: BidProfile | None = None,
    engine=run_expected,
) -> PropertyReport:
    """No agent gains by deviating from her true value, against any fixed others.

    ``others_profile`` supplies the (not necessarily truthful) bids of the
    non-deviators; it defaults to the truthful profile. For every agent and
    every candidate bid in her deviation grid, the deviation's expected
    adjusted utility must not exceed the truthful bid's, exactly.
    """
    name = "strategyproofness"
    if others_profile is None:
        others_profile = valuations
    instance = describe_instance(initial, others_profile, config)
    n = config.n
    a, d = _share_numerators(initial, others_profile, config)
    _check_sizes(valuations.n, config, "valuations")
    score = _scorer(engine, initial, valuations, config, a, d)
    # every fixed bid over one denominator e, and over 1000 * e, the grid's
    fixed, e = _over_lcm(others_profile.bids + valuations.bids)
    scaled = [1000 * x for x in fixed]
    values = scaled[n:]
    e *= 1000
    cases = 0
    for agent in range(n):
        w = scaled[:n]
        w[agent] = values[agent]
        # the truthful run goes first, so its errors come before the grid's
        ((t_num, t_den),) = score(w, e, values, (agent,))
        for bid in _grid(_others(fixed[:n], agent)):
            cases += 1
            w[agent] = bid
            ((num, den),) = score(w, e, values, (agent,))
            gain = num * t_den - t_num * den
            if gain > 0:
                gain = Rational(gain, d * e * den * t_den)
                cand = Rational(bid, e)
                return _violation(
                    name,
                    instance,
                    cases,
                    f"agent {agent} (value {valuations.bids[agent]}) gains "
                    f"{gain} by bidding {cand}",
                    agent=agent,
                    bids=others_profile.replace_bid(agent, cand).bids,
                    utility_delta=gain,
                )
    return PropertyReport(name, instance, holds=True, cases=cases)


def _all_gain(ratios, coalition, truthful) -> bool:
    """Whether each member's (numerator, denominator) in ``ratios`` beats her truthful one."""
    return all(
        num * truthful[j][1] > truthful[j][0] * den
        for j, (num, den) in zip(coalition, ratios)
    )


def _grid_all_gain(score, base, e, truthful, grids, coalition):
    """(w, cases) for the first tie-free joint grid deviation of ``coalition``
    in which every member strictly gains: the full bid list and the grid
    cases walked, ties included. None if there is none."""
    product = itertools.product(*(grids[j] for j in coalition))
    for cases, combo in enumerate(product, 1):
        if len(set(combo)) < len(combo):
            continue  # joint ties: outside the mechanism's domain
        w = list(base)
        for j, bid in zip(coalition, combo):
            w[j] = bid
        if _all_gain(score(w, e, base, coalition), coalition, truthful):
            return w, cases
    return None


def _pattern_all_gain(a, d: int, m_bar: int, values, truthful, coalition):
    """(w, walked) for the first rank pattern of ``coalition`` in which every
    member strictly gains: one tie-free bid list on it and the patterns
    walked. None if there is none.

    ``values`` are the true values as distinct integers, each a multiple of
    n + 1, and ``truthful`` the utility ratios at them. A pattern places the
    members at distinct ranks and the non-members in their truthful order
    around them. On a pattern whose rank m_bar is a member, she gets 0, no
    more than her truthful utility (the caller makes sure that is not
    negative). Otherwise the price is that non-member's value, and H, L and
    each member's side follow from the order, so one point decides the
    pattern: the non-members at their values and each member one above the
    bid below her (0 at the bottom). A pattern that needs a member below a
    zero bid has no point and is skipped.
    """
    n = len(values)
    members = set(coalition)
    fixed = sorted(
        (j for j in range(n) if j not in members), key=values.__getitem__, reverse=True
    )
    patterns = itertools.permutations(range(n), len(coalition))
    for walked, ranks in enumerate(patterns, 1):
        if m_bar - 1 in ranks:
            continue
        order = list(fixed)
        for rank, j in sorted(zip(ranks, coalition)):
            order.insert(rank, j)
        w = list(values)
        below = -1
        for j in reversed(order):
            if j in members:
                below += 1
                w[j] = below
            elif values[j] > below:
                below = values[j]
            else:
                break  # a member below a zero bid
        else:
            ratios = _utility_ratios(a, d, m_bar, w, values, coalition)
            if _all_gain(ratios, coalition, truthful):
                return w, walked
    return None


def check_weak_group_strategyproofness(
    initial: Allocation,
    valuations: BidProfile,
    config: MbmConfig,
    budget: int = DEFAULT_SEARCH_BUDGET,
    engine=run_expected,
) -> PropertyReport:
    """No coalition deviation makes every member strictly better off.

    Covers all coalitions of size >= 2 and the product of the members'
    deviation grids. Joint assignments that reintroduce ties are skipped
    (the grids avoid all truthful bids, but two members may draw the same
    candidate). A negative ``budget`` raises InvalidArgument before any
    work. Before building any coalition, raises SearchBudgetExceeded
    rather than subsampling when ``prod(1 + |grid_j|) - 1 - sum(|grid_j|)``,
    every subset's joint deviations less the empty and one-member ones,
    exceeds ``budget``. A holding verdict's ``cases`` is that count: the
    grid deviations covered.

    For the real engine, each agent's truthful ``_utility_ratios`` value is
    first compared with ``run_expected``'s; a mismatch is a violation at
    the truthful bids. Then, when every share is positive, a coalition whose
    members' truthful utilities are all non-negative is decided on its rank
    patterns (``_pattern_all_gain``), which cover the grid and every other
    tie-free deviation; a violation found there counts the patterns walked.
    Every other coalition, engine and instance walks the grid product.

    Weak gains are expected and must not be flagged: a threshold agent can
    move the price in her neighbors' favor while staying at zero herself.
    """
    _check_budget(budget)
    name = "weak-group-strategyproofness"
    instance = describe_instance(initial, valuations, config)
    n = config.n
    a, d = _share_numerators(initial, valuations, config)
    score = _scorer(engine, initial, valuations, config, a, d)
    # the valuations over one denominator e
    base, e = _over_lcm(valuations.bids)
    truthful = list(score(base, e, base, range(n)))
    if engine is run_expected:
        # tie the scorer to the engine at the truthful profile
        expected = run_expected(initial, valuations, config)
        for j, (num, den) in enumerate(truthful):
            fast = Rational(num, d * e * den)
            slow = expected_adjusted_utility(initial, expected, valuations, j)
            if fast != slow:
                return _violation(
                    name,
                    instance,
                    j + 1,
                    f"agent {j}: the scorer gives {fast} at the truthful bids, "
                    f"the engine {slow}",
                    agent=j,
                    bids=valuations.bids,
                )
    grids = [_grid(_others(base, j)) for j in range(n)]

    required = math.prod(1 + len(grid) for grid in grids) - 1 - sum(map(len, grids))
    if required > budget:
        raise SearchBudgetExceeded(required, budget)

    patterns = engine is run_expected and min(a) > 0
    coalitions = (c for k in range(2, n + 1) for c in itertools.combinations(range(n), k))
    cases = 0
    for coalition in coalitions:
        by_pattern = patterns and min(truthful[j][0] for j in coalition) >= 0
        # pattern points are integers over (n + 1) * e, grid deviations over 1000 * e
        scale = n + 1 if by_pattern else 1000
        values = [scale * x for x in base]
        truth = [(num * scale, den) for num, den in truthful]
        if by_pattern:
            found = _pattern_all_gain(a, d, config.m_bar, values, truth, coalition)
        else:
            found = _grid_all_gain(score, values, scale * e, truth, grids, coalition)
        if found is None:
            cases += math.prod(len(grids[j]) for j in coalition)
            continue
        w, walked = found
        combo = tuple(Rational(w[j], scale * e) for j in coalition)
        deviant = list(valuations.bids)
        for j, bid in zip(coalition, combo):
            deviant[j] = bid
        return _violation(
            name,
            instance,
            cases + walked,
            f"coalition {coalition} all strictly gain by bidding "
            f"{tuple(str(b) for b in combo)}",
            coalition=coalition,
            bids=BidProfile(tuple(deviant)).bids,
        )
    return PropertyReport(name, instance, holds=True, cases=cases)


def check_pp_expost_efficiency(
    initial: Allocation,
    valuations: BidProfile,
    config: MbmConfig,
    engine=run_expected,
) -> PropertyReport:
    """Remaining owners are the highest-valuing agents, in their initial proportions.

    Both conditions are checked in both branches under truthful bids:
    (1) every remaining owner keeps the first owner's final:initial share ratio
    exactly (by cross-multiplication, which covers zero-share buyers; all pairs
    agree when all agree with one owner of positive final share), and (2) no
    cashed-out agent outvalues the lowest-valuing owner: n - 1 comparisons.
    """
    name = "pp-expost-efficiency"
    instance = describe_instance(initial, valuations, config)
    values = valuations.bids
    expected = engine(initial, valuations, config)
    cases = 0
    for branch in expected.branches:
        final = branch.final_allocation
        owners = [j for j in range(config.n) if final.shares[j] > 0]
        if not owners:
            continue
        j = owners[0]
        for k in owners[1:]:
            cases += 1
            if final.shares[j] * initial.shares[k] != final.shares[k] * initial.shares[j]:
                return _violation(
                    name,
                    instance,
                    cases,
                    f"branch m={branch.realized_m}: owners {j},{k} moved from "
                    f"ratio {initial.shares[j]}:{initial.shares[k]} to "
                    f"{final.shares[j]}:{final.shares[k]}",
                    bids=values,
                )
        lowest = min(values[k] for k in owners)
        for j in (i for i in range(config.n) if final.shares[i] == 0):
            cases += 1
            if values[j] > lowest:
                # the witness names the first owner, by index, that she outvalues
                k = next(k for k in owners if values[j] > values[k])
                return _violation(
                    name,
                    instance,
                    cases,
                    f"branch m={branch.realized_m}: seller {j} values the "
                    f"asset at {values[j]}, above owner {k}'s {values[k]}",
                    agent=j,
                    bids=values,
                )
    return PropertyReport(name, instance, holds=True, cases=cases)


# --- corrupted mechanism variants (negative controls) -----------------------
#
# Each variant breaks exactly one property so the oracles can be shown to
# catch real defects. Every one post-processes the true outcome: payment,
# shares and scale-skew edit the high branch, and the price-* variants
# reprice both branches. They are never part of the mechanism API.

CORRUPTION_KINDS = ("payment", "shares", "scale-skew", "price-next", "price-dip")


def _repriced(initial: Allocation, branch, price):
    # the branch's trades settled at ``price``: each agent pays for the share
    # mass she gains, or collects for the mass she gives up, at that price
    final = branch.final_allocation
    money = tuple(
        x + (s0 - s1) * price
        for x, s0, s1 in zip(initial.money, initial.shares, final.shares)
    )
    return replace(
        branch, price=price, final_allocation=Allocation._from_parts(final.shares, money)
    )


def corrupted_engine(kind: str):
    """An engine variant with one injected defect; see CORRUPTION_KINDS."""
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}; pick from {CORRUPTION_KINDS}")

    def engine(initial, profile, config):
        expected = run_expected(initial, profile, config)
        high = expected.high_branch
        order = high.order
        if kind in ("price-next", "price-dip"):
            bids = profile.bids
            if kind == "price-next":
                price = bids[order[config.m_bar]]
            else:
                # subtracting part of the lowest bid makes the price fall
                # when that bid rises: breaks monotonicity
                price = bids[order[config.m_bar - 1]] - bids[order[-1]] / 2
            return ExpectedOutcome(
                high_branch=_repriced(initial, high, price),
                low_branch=_repriced(initial, expected.low_branch, price),
            )
        shares = list(high.final_allocation.shares)
        money = list(high.final_allocation.money)
        if kind == "payment":
            money[order[-1]] += Rational(1, 1000)
        elif kind == "shares":
            shares[order[0]] += Rational(1, 1000)
        else:
            # scale-skew: shuffle share mass between the top two buyers, so
            # proportionality breaks while the share total (and hence budget
            # balance) holds
            shift = shares[order[0]] / 10
            shares[order[0]] -= shift
            shares[order[1]] += shift
        bad = replace(
            high, final_allocation=Allocation._from_parts(tuple(shares), tuple(money))
        )
        return ExpectedOutcome(high_branch=bad, low_branch=expected.low_branch)

    return engine
