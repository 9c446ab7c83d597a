"""Brute-force oracles for the mechanism's strategic and accounting claims.

Each oracle re-derives one property from first principles on a concrete
instance and returns a PropertyReport instead of raising: a violated
verdict always carries a reproducible witness. Every oracle accepts an
``engine`` hook (defaulting to the real mechanism) so deliberately
corrupted variants run through the same verdict logic as negative
controls; see ``corrupted_engine``. The accounting oracles read the
outcome as integers over common denominators (utilities through
``core._utilities``) and make rationals only for a witness.

Both incentive claims are one search, ``_deviation_search``: does some
deviation make every member of a coalition strictly better off?
Strategyproofness asks it of the coalitions of one against fixed others,
weak group strategyproofness of every coalition of two or more against the
valuations. An instance is set up once: shares as a / d, the fixed bids
and the true values as integers over one common denominator e. A member's
utility times d e is an integer ratio, compared with the truthful one by
cross-multiplication. The real mechanism is scored off one readout of the
paper's three agent types, ``core._lone``: one agent's price and buyer
masses against the fixed bids' one ranking, with no sort per agent. It is
tied to ``run_expected`` at the first truthful profile before any
deviation, read off that one outcome by ``core._utilities`` at the true
values and again with every value moved off its bid. Any other engine,
including a wrapper around the real one, is scored by ``_scorer``: it runs
the profile built straight on those integers (``BidProfile._from_form``),
and ``core._utilities`` reads each member's two branches off their
integer forms as one integer ratio, with no rational made.

A coalition is decided on one of two paths, chosen by the engine alone.
With the non-members' bids fixed, the real mechanism's utilities depend
only on the threshold class: the non-member t at rank m_bar and the
members above her, both read by ``core._above`` off the search's one
ranking of the fixed bids. So one point per class decides it, at most 2^k
for k members; a lone deviator's classes make her the paper's definite
buyer or definite seller. Any other engine walks the grid: with the
others' bids fixed, the mechanism's utility is piecewise constant in an
agent's own bid, breaking only at the other bids, so ``_grid`` samples
every piece tie-free, over 1000 * e, and the tests re-check verdicts on a
10x refined grid. Either way a holding verdict's ``cases`` counts the grid
deviations covered, 3k - 1 per member against k other bids (3k - 2 when
one is 0).

Price monotonicity is decided on the same pieces: between consecutive
other bids the real engine's price is constant or the mover's bid, and the
``price-*`` controls' prices are affine, so three points per piece and the
limits at its ends decide the lemma, every agent's others read off the
fixed bids' one ranking, with no sort per agent or point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import partial

from .core import (
    Allocation,
    BidProfile,
    ExpectedOutcome,
    MbmConfig,
    _above,
    _bid_numerators,
    _bid_order,
    _branches,
    _check_sizes,
    _holdings,
    _kernel,
    _lone,
    _masses,
    _OnRead,
    _priced_ratios,
    _reduced,
    _reject_ties,
    _settle,
    _share_numerators,
    _simplex_numerators,
    _utilities,
    _weighted,
    run_expected,
)
from .errors import DuplicateBids, InvalidArgument, SearchBudgetExceeded
from .rational import Rational, as_ratio, ratio_str, rational_str

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
    w, e = _bid_numerators(profile)
    _reject_ties((j, b) for j, b in enumerate(w) if j != agent)
    return DeviationGrid(tuple(Rational(c, 1000 * e) for c in _grid(w[:agent] + w[agent + 1:])))


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
    """Verdict of one oracle on one instance. ``instance`` is its text; an oracle
    passes (initial, profile, config), which ``describe_instance`` renders on read."""

    name: str
    instance: str = _OnRead(lambda report, _: describe_instance(*report._described))
    holds: bool
    cases: int
    witness: Witness | None = None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a violated verdict must carry a witness")
        if isinstance(self.instance, tuple):
            object.__setattr__(self, "_described", self.__dict__.pop("instance"))


def _violation(name: str, instance, cases: int, detail: str, **witness_fields) -> PropertyReport:
    """A violated verdict whose witness carries ``detail`` and ``witness_fields``."""
    witness = Witness(detail=detail, **witness_fields)
    return PropertyReport(name, instance, holds=False, cases=cases, witness=witness)


def describe_instance(
    initial: Allocation, profile: BidProfile, config: MbmConfig
) -> str:
    a, d = _holdings(initial)[:2]
    w, e = _bid_numerators(profile)
    shares = ",".join(map(ratio_str, a, itertools.repeat(d)))
    bids = ",".join(map(ratio_str, w, itertools.repeat(e)))
    return f"n={config.n} m_bar={config.m_bar} shares=[{shares}] bids=[{bids}]"


def _scorer(engine, initial, config):
    """The instance's ``score(w, e, values, agents)`` for an engine other than
    ``run_expected``: each of ``agents``' expected adjusted utility times d e,
    shares a[i] / d and bids w and true values over e, as (numerator,
    denominator), denominator positive. It runs the profile w / e once per
    call, built on those integers with no rational made, and
    ``core._utilities`` reads its outcome one agent at a time as the caller
    consumes them."""
    holdings = _holdings(initial)

    def score(w, e, values, agents):
        branches = _weighted(engine(initial, BidProfile._from_form(w, e), config))
        yield from _utilities(holdings, branches, agents, values, e)

    return score


def check_budget_balance(
    initial: Allocation,
    profile: BidProfile,
    config: MbmConfig,
    engine=run_expected,
) -> PropertyReport:
    """Total shares and total money are conserved exactly in both branches."""
    name = "budget-balance"
    instance = (initial, profile, config)
    expected = engine(initial, profile, config)
    a, d, x, c = _holdings(initial)
    share_total, money_total = sum(a), sum(x)
    cases = 0
    for branch in expected.branches:
        s, t, y, z = _holdings(branch.final_allocation)
        cases += 2
        if sum(s) * d != share_total * t:
            return _violation(
                name,
                instance,
                cases,
                f"branch m={branch.realized_m}: final shares total "
                f"{ratio_str(sum(s), t)}, initial total {ratio_str(share_total, d)}",
                bids=profile.bids,
            )
        delta_total = sum(y) * c - money_total * z
        if delta_total != 0:
            return _violation(
                name,
                instance,
                cases,
                f"branch m={branch.realized_m}: payments sum to "
                f"{ratio_str(delta_total, c * z)}, expected 0",
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
    instance = (initial, valuations, config)
    expected = engine(initial, valuations, config)
    holdings = _holdings(initial)
    v, e = _bid_numerators(valuations)
    de = holdings[1] * e
    cases = 0
    for branch in expected.branches:
        one = ((1, 1, branch.final_allocation),)
        for agent, (num, den) in enumerate(_utilities(holdings, one, range(config.n), v, e)):
            cases += 1
            if num < 0:
                gain = Rational(num, de * den)
                return _violation(
                    name,
                    instance,
                    cases,
                    f"agent {agent} loses {ratio_str(-num, de * den)} in branch "
                    f"m={branch.realized_m}",
                    agent=agent,
                    bids=valuations.bids,
                    utility_delta=gain,
                )
    return PropertyReport(name, instance, holds=True, cases=cases)


def _pricer(engine, initial, config, fixed, e: int):
    """The instance's ``readout(agent)``: (price, others), the others' bids
    ascending and ``price(x, k)`` the high branch's price times k e when
    ``agent`` bids x / (k e) and each other j fixed[j] / e.

    The others come off the fixed bids' one ``_bid_order``, and the real
    engine's price is ``core._lone``'s off that order: the others' m_bar-th
    bid when she sells, x when she is the threshold agent and their
    (m_bar - 1)-th when she buys. When a share is zero, ``_branches`` checks
    the H and L it reads with the price, as ``run_expected`` does; any other
    engine runs the bids.
    """
    m_bar = config.m_bar
    order = _bid_order(fixed)
    real = engine is run_expected
    if real:
        a, d = _simplex_numerators(initial)
        zero, mass = min(a) == 0, _masses(order, a)

    def run(agent, x, k):
        w = [k * b for b in fixed]
        w[agent] = x
        return engine(initial, BidProfile._from_form(w, k * e), config).high_branch.price * k * e

    def readout(agent):
        others = [fixed[j] for j in reversed(order) if j != agent]
        if not real:
            return partial(run, agent), others
        read = _lone(order, mass, a, fixed, order.index(agent), m_bar)

        def price(x, k):
            u, high, low = read(x, k)
            if zero:
                _branches({m_bar: high, m_bar - 1: low}, d, m_bar)
            return u

        return price, others

    return readout


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

    The real engine's readout (``_pricer``) is first tied to ``run_expected``
    at the truthful bids, read through every agent's readout at her own bid,
    a mismatch being a violation there. A witness names the agent and the
    profile at her highest offending bid, and its detail lists those bids
    with their prices; a jump is shown by two bids either side of the
    boundary.
    """
    name = "price-monotonicity"
    instance = (initial, profile, config)
    # the truthful run goes first, so its errors come before the pieces'
    truthful = engine(initial, profile, config).high_branch.price
    fixed, e = _bid_numerators(profile)
    readouts = list(map(_pricer(engine, initial, config, fixed, e), range(config.n)))
    if engine is run_expected:  # every agent's readout at her own bid
        p, q = as_ratio(truthful)
        for agent, (price, _) in enumerate(readouts):
            at = price(fixed[agent], 1)
            if at * q != p * e:
                at, truthful = ratio_str(at, e), rational_str(truthful)
                detail = f"the readout gives price {at} at the truthful bids, the engine {truthful}"
                return _violation(name, instance, 1, detail, bids=profile.bids)

    def violation(cases, agent, e, points, reason):
        # points: the agent's bids over e, ascending, each with its price times e
        bids = ", ".join(ratio_str(x, e) for x, _ in points)
        # another engine's prices are rationals: price * k * e
        prices = ", ".join(rational_str(Rational(p) / e) for _, p in points)
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
    for agent, (price, up) in enumerate(readouts):
        bounds = [0] * (up[0] > 0) + up + [2 * up[-1]]
        before = None  # the previous piece's quarter step, rise per step, right limit
        for lo, hi in zip(bounds, bounds[1:]):
            h = hi - lo
            points = [(x, price(x, 4)) for x in (4 * lo + h, 4 * lo + 2 * h, 4 * lo + 3 * h)]
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
                near = [(x, price(x, 4 << k)) for x in ((4 * lo << k) - m, (4 * lo << k) + m)]
                return violation(cases, agent, e << k, near, "the price falls")
            before = (h, p3 - p2, 2 * p3 - p2)
    return PropertyReport(name, instance, holds=True, cases=cases)


def _grid_points(base, grids, coalition, score, e, values):
    """(walked, w, ratios) for each tie-free joint grid deviation of
    ``coalition``: the grid cases walked so far, joint ties included, the
    full bid list with the members' bids taken from ``grids``, and
    ``score``'s ratios for the members there."""
    product = itertools.product(*(grids[j] for j in coalition))
    for walked, combo in enumerate(product, 1):
        if len(set(combo)) < len(combo):
            continue  # joint ties: outside the mechanism's domain
        w = list(base)
        for j, bid in zip(coalition, combo):
            w[j] = bid
        yield walked, w, score(w, e, values, coalition)


def _classes(ranking, a, d: int, m_bar: int, base, values, coalition):
    """(walked, w, ratios) for each threshold class of ``coalition``, as
    ``_grid_points`` yields, scored by ``core._priced_ratios`` with no sort.

    ``base`` holds the fixed bids as distinct multiples of n + 1, and
    ``ranking`` their ``_bid_order``, each agent's position in it and its
    ``_masses``. A class is the r-th highest non-member t (``core._above``),
    at rank m_bar, and the m_bar - r members S above her: the price is t's
    bid u, L the share mass of S and of the non-members above t, and
    H = L + a_t. Its point puts S at u + 1, u + 2, ... and the other members
    at u - 1, u - 2, ...; a class that needs a member below a zero bid is
    skipped, and one with L = 0 raises what ``run_expected`` raises at its
    point (``core._branches``).
    """
    order, rank, mass = ranking
    moved = sorted(rank[j] for j in coalition)
    walked = 0
    for r in range(max(1, m_bar - len(coalition)), min(m_bar, len(base) - len(coalition)) + 1):
        t, above = _above(order, mass, a, moved, r)
        u = base[t]
        for s in itertools.combinations(coalition, m_bar - r):
            walked += 1
            if u == 0 and len(s) < len(coalition):
                continue  # a member below a zero bid
            low = above + sum(map(a.__getitem__, s))
            high = low + a[t]
            _branches({m_bar: high, m_bar - 1: low}, d, m_bar)
            w, hi, lo = base[:], u, u
            for j in coalition:
                if j in s:
                    hi = w[j] = hi + 1
                else:
                    lo = w[j] = lo - 1
            yield walked, w, _priced_ratios(a, d, u, high, low, w, values, coalition)


def _deviation_search(
    name, initial, valuations, config, others, coalitions, engine, budget=None
) -> PropertyReport:
    """The first of ``coalitions`` with a deviation that makes every member
    strictly better off, as a violated report; else a holding one.

    The non-members bid as in ``others``; a member's truthful utility is her
    true value bid against the same others. Before any deviation, the profile
    where agent 0 bids her value against the fixed bids is scored. It is
    the first coalition's truthful profile, and every coalition's when
    ``others`` are the valuations; then every agent is scored there, as for
    the real engine. Otherwise agent 0 alone is scored there, and each
    coalition's truthful bids are scored again just before its deviations,
    so errors come in the order of the profiles met. For the real engine
    the first profile is ranked once, for its ties and type agents, and the
    fixed bids once; a truthful score is the member's ``core._lone`` readout
    at her value off that ranking, and a value equal to another agent's bid
    raises that one DuplicateBids pair, as ranking her profile would. One
    agent of each type in the first profile (definite buyer, threshold
    agent, definite seller) is tied to ``run_expected``, at the true values
    and again with every value 1 / e above its bid, and so is every member
    at a class point where all gain, before the gain is reported. A
    mismatch is a violation there, whose witness names any moved values and
    whose ``cases`` adds the agents compared.

    A tie left in the fixed bids involves agent 0, a DuplicateBids pair as
    each agent's others would name it, raised after the first profile's
    tie. A coalition is decided on its threshold classes (``_classes``),
    read off the fixed bids' ranking, for the real engine and on its
    members' grid product (``_grid_points``) for any other. The classes skip
    a member at rank m_bar, who gets 0; bidding her value, a buyer gets
    a_j (d - H)(v_j - u) / L with v_j > u, a seller a_j (u - v_j) with
    v_j < u, so no truthful utility is negative. A holding verdict's
    ``cases`` counts the grid deviations covered, 3n - 4 per member and one
    fewer when another bids 0; a violation counts those of the earlier
    coalitions plus the classes or grid points walked in its own. With a
    ``budget``, the search raises SearchBudgetExceeded before any coalition
    when the grid deviations of every coalition of two or more exceed it.
    """
    instance = (initial, others, config)
    n = config.n
    a, d = _share_numerators(initial, others, config)
    _check_sizes(valuations.n, config, "valuations")
    real = engine is run_expected
    # the fixed bids and the true values over one denominator e
    fixed, e = _reduced(_bid_numerators(others), _bid_numerators(valuations))
    bids, values = fixed[:n], fixed[n:]
    shared = bids == values
    # the first coalition's truthful profile: agent 0 bids her value
    w = list(bids)
    w[0] = values[0]
    holdings = _holdings(initial)

    def tie(w, e, agents, ties, cases):
        # the first of ``agents`` whose utility under run_expected at the bids
        # w / e is not the scorer's, as a violation there, else None; ``ties``
        # holds (values over e, {agent: the scorer's ratio}) pairs, the first
        # at the true values
        profile = BidProfile._from_form(w, e)
        branches = _weighted(run_expected(initial, profile, config))
        for vals, by_scorer in ties:
            for j, (slow, slow_den) in zip(agents, _utilities(holdings, branches, agents, vals, e)):
                cases += 1
                num, den = by_scorer[j]
                if num * slow_den != slow * den:
                    fast = ratio_str(num, d * e * den)
                    slow = ratio_str(slow, d * e * slow_den)
                    at = "at the witness bids"
                    if vals is not ties[0][0]:
                        at += f" with values ({', '.join(ratio_str(x, e) for x in vals)})"
                    detail = f"agent {j}: the scorer gives {fast} {at}, the engine {slow}"
                    return _violation(name, instance, cases, detail, agent=j, bids=profile.bids)

    # the fixed bids ranked once, their ties checked after the first profile's
    order = sorted(range(n), key=bids.__getitem__, reverse=True)
    if real:
        first = _bid_order(w)  # the first profile's ties and type agents
        rank, mass, m_bar = {j: i for i, j in enumerate(order)}, _masses(order, a), config.m_bar
        index = {b: i for i, b in enumerate(bids)}

        def lone(j):  # ``_priced_ratios`` where j alone bids her value against the fixed bids
            u, high, low = _lone(order, mass, a, bids, rank[j], m_bar)(values[j])
            _branches({m_bar: high, m_bar - 1: low}, d, m_bar)
            return partial(_priced_ratios, a, d, u, high, low)

        at_first = lone(0)
        truthful = dict(enumerate(at_first(w, values, range(n))))
        # the readout tied to run_expected there: the top bidder buys, the
        # agent ranked m_bar is the threshold agent and the bottom bidder
        # sells. The outcome does not depend on the values, so it is read
        # again with each value 1 / e above its bid, where the threshold agent
        # must still get 0
        types = sorted((first[0], first[m_bar - 1], first[-1]))
        moved = [x + 1 for x in w]
        ties = ((values, truthful), (moved, dict(zip(types, at_first(w, moved, types)))))
        mismatch = tie(w, e, types, ties, 0)
        if mismatch is not None:
            return mismatch
    else:
        score = _scorer(engine, initial, config)
        scored = range(n) if shared else (0,)
        truthful = dict(zip(scored, score(w, e, values, scored)))
    _reject_ties(enumerate(bids))
    bottom = order[-1]  # ``_grid``: 3k - 1 candidates against k others, 3k - 2 if one bids 0
    sizes = [3 * n - 4 - (bids[bottom] == 0 and j != bottom) for j in range(n)]
    if budget is not None:
        required = math.prod(1 + k for k in sizes) - 1 - sum(sizes)
        if required > budget:
            raise SearchBudgetExceeded(required, budget)
    grids = None  # built when a coalition first walks the grid
    # class points are integers over (n + 1) * e, grid deviations over 1000 * e
    scale = n + 1 if real else 1000
    base, scaled = [scale * x for x in bids], [scale * x for x in values]
    cases = 0
    for coalition in coalitions:
        if not shared and real:
            (j,) = coalition  # sp's lone member bids her value against the fixed bids
            if index.get(values[j], j) != j:  # a tie, named as ranking her profile names it
                raise DuplicateBids([sorted((index[values[j]], j))])
            truthful[j] = lone(j)(values, values, coalition)[0]
        elif not shared:
            # the members bid truthfully against the others' fixed bids
            w = list(bids)
            for j in coalition:
                w[j] = values[j]
            for j, ratio in zip(coalition, score(w, e, values, coalition)):
                truthful[j] = ratio
        if real:
            points = _classes((order, rank, mass), a, d, m_bar, base, scaled, coalition)
        else:
            grids = grids or [_grid(bids[:j] + bids[j + 1:]) for j in range(n)]
            points = _grid_points(base, grids, coalition, score, scale * e, scaled)
        for walked, w, ratios in points:
            for j, (num, den) in zip(coalition, ratios):
                t_num, t_den = truthful[j]
                if num * t_den <= scale * t_num * den:
                    break
            else:
                if real:  # the gain is reported only where the engine agrees
                    by_scorer = dict(zip(coalition, ratios))
                    mismatch = tie(w, scale * e, coalition, ((scaled, by_scorer),), cases + walked)
                    if mismatch is not None:
                        return mismatch
                deviant = tuple(Rational(x, scale * e) for x in w)
                if len(coalition) > 1:
                    combo = tuple(rational_str(deviant[j]) for j in coalition)
                    detail = f"coalition {coalition} all strictly gain by bidding {combo}"
                    fields = {"coalition": coalition}
                else:
                    gain = Rational(num * t_den - scale * t_num * den, d * scale * e * den * t_den)
                    value, gained, bid = map(rational_str, (valuations.bids[j], gain, deviant[j]))
                    detail = f"agent {j} (value {value}) gains {gained} by bidding {bid}"
                    fields = {"agent": j, "utility_delta": gain}
                return _violation(name, instance, cases + walked, detail, bids=deviant, **fields)
        cases += math.prod(sizes[j] for j in coalition)
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
    non-deviators; it defaults to the truthful profile. The search is
    ``_deviation_search`` over the coalitions of one: each agent's
    deviations, on her threshold classes or her grid, must not give her more
    expected adjusted utility than bidding her true value, exactly. A
    holding verdict's ``cases`` is the grid candidates covered, one per
    candidate of each agent.
    """
    if others_profile is None:
        others_profile = valuations
    singles = ((j,) for j in range(config.n))
    return _deviation_search(
        "strategyproofness", initial, valuations, config, others_profile, singles, engine
    )


def check_weak_group_strategyproofness(
    initial: Allocation,
    valuations: BidProfile,
    config: MbmConfig,
    budget: int = DEFAULT_SEARCH_BUDGET,
    engine=run_expected,
) -> PropertyReport:
    """No coalition deviation makes every member strictly better off.

    ``_deviation_search`` over all coalitions of size >= 2, against the
    truthful profile. Joint grid assignments that reintroduce ties are
    skipped (the grids avoid all truthful bids, but two members may draw
    the same candidate). A negative ``budget`` raises InvalidArgument before
    any work. Before building any coalition, raises SearchBudgetExceeded
    rather than subsampling when ``prod(1 + |grid_j|) - 1 - sum(|grid_j|)``,
    every subset's joint deviations less the empty and one-member ones,
    exceeds ``budget``. A holding verdict's ``cases`` is that count.

    Weak gains are expected and must not be flagged: a threshold agent can
    move the price in her neighbors' favor while staying at zero herself.
    """
    _check_budget(budget)
    name = "weak-group-strategyproofness"
    n = config.n
    coalitions = (c for k in range(2, n + 1) for c in itertools.combinations(range(n), k))
    return _deviation_search(
        name, initial, valuations, config, valuations, coalitions, engine, budget
    )


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
    agent cashed out of a positive stake outvalues the lowest-valuing owner;
    zero stakes count but are never flagged. n - 1 comparisons.
    """
    name = "pp-expost-efficiency"
    instance = (initial, valuations, config)
    expected = engine(initial, valuations, config)
    a, d = _holdings(initial)[:2]
    v, e = _bid_numerators(valuations)
    cases = 0
    for branch in expected.branches:
        b, t = _holdings(branch.final_allocation)[:2]
        owners = [j for j in range(config.n) if b[j] > 0]
        if not owners:
            continue
        j = owners[0]
        for k in owners[1:]:
            cases += 1
            if b[j] * a[k] != b[k] * a[j]:
                return _violation(
                    name,
                    instance,
                    cases,
                    f"branch m={branch.realized_m}: owners {j},{k} moved from "
                    f"ratio {ratio_str(a[j], d)}:{ratio_str(a[k], d)} to "
                    f"{ratio_str(b[j], t)}:{ratio_str(b[k], t)}",
                    bids=valuations.bids,
                )
        lowest = min(v[k] for k in owners)
        for j in (i for i in range(config.n) if b[i] == 0):
            cases += 1
            if a[j] and v[j] > lowest:
                # the witness names the first owner, by index, that she outvalues
                k = next(k for k in owners if v[j] > v[k])
                return _violation(
                    name,
                    instance,
                    cases,
                    f"branch m={branch.realized_m}: seller {j} values the "
                    f"asset at {ratio_str(v[j], e)}, above owner {k}'s {ratio_str(v[k], e)}",
                    agent=j,
                    bids=valuations.bids,
                )
    return PropertyReport(name, instance, holds=True, cases=cases)


# --- corrupted mechanism variants (negative controls) -----------------------
#
# Each variant breaks exactly one property so the oracles can be shown to
# catch real defects. payment, shares and scale-skew edit the true
# outcome's high branch; the price-* variants rank the instance with
# ``core._kernel`` and settle its true trades at their own price with
# ``core._settle``, the engine's own settlement. They are never part of the
# mechanism API.

CORRUPTION_KINDS = ("payment", "shares", "scale-skew", "price-next", "price-dip")


def corrupted_engine(kind: str):
    """An engine variant with one injected defect; see CORRUPTION_KINDS."""
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}; pick from {CORRUPTION_KINDS}")

    def engine(initial, profile, config):
        if kind in ("price-next", "price-dip"):
            kernel = _kernel(initial, profile, config)
            order, _, _, _, w, e = kernel
            m_bar = config.m_bar
            if kind == "price-next":
                return _settle(initial, kernel, m_bar, w[order[m_bar]], e)
            # subtracting part of the lowest bid makes the price fall when
            # that bid rises: breaks monotonicity
            return _settle(initial, kernel, m_bar, 2 * w[order[m_bar - 1]] - w[order[-1]], 2 * e)
        expected = run_expected(initial, profile, config)
        high = expected.high_branch
        order = high.order
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
        final = Allocation(shares, money)
        bad = replace(high, final_allocation=final)
        return ExpectedOutcome(high_branch=bad, low_branch=expected.low_branch)

    return engine
