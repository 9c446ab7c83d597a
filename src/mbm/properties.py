"""Brute-force oracles for the mechanism's strategic and accounting claims.

Each oracle re-derives one property from first principles on a concrete
instance -- exact summation, exhaustive single-agent deviation search,
coalition enumeration -- and returns a PropertyReport instead of raising:
a violated verdict always carries a reproducible witness.

Deviation search rests on one structural fact. Fixing everyone else's bids,
an agent's expected adjusted utility as a function of her own bid is
piecewise constant with breakpoints only at the other agents' bids: between
breakpoints neither her rank nor any order statistic of the full profile
changes, and on the piece where she holds rank m_bar the branch weighting
cancels the price dependence identically. One tie-free sample per piece
therefore decides the whole piece; near-breakpoint samples guard the piece
boundaries, and the test suite re-checks verdicts under 10x grid
refinement.

Every oracle accepts an ``engine`` hook (defaulting to the real mechanism)
so deliberately corrupted variants can be run through the same verdict
logic as negative controls; see ``corrupted_engine``. The two deviation
searches evaluate one profile per case and need only expected utilities:
with the real mechanism they read them straight off the integer kernel
(``expected_adjusted_utilities``), building no outcome. Any other engine,
including a wrapper around the real one, takes the reference path: its
outcome, then ``expected_adjusted_utility`` per agent. Both paths give
equal verdicts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from .core import (
    Allocation,
    BidProfile,
    ExpectedOutcome,
    MbmConfig,
    expected_adjusted_utilities,
    expected_adjusted_utility,
    run_expected,
)
from .errors import DuplicateBids, SearchBudgetExceeded
from .rational import ONE, ZERO, Rational, rational

DEFAULT_SEARCH_BUDGET = 10**6


@dataclass(frozen=True)
class DeviationGrid:
    """Tie-free candidate bids for one deviating agent.

    Candidates are: ``resolution`` evenly spaced points inside every gap
    between consecutive other-bids, points delta above and below each
    other-bid, and outer points delta beyond the extremes -- clamped to
    non-negative bids and never colliding with any other agent's bid.
    Every rank the deviator can attain is reachable through some candidate.
    """

    agent: int
    delta: Rational
    resolution: int
    candidates: tuple


def deviation_grid(
    profile: BidProfile,
    agent: int,
    delta=None,
    resolution: int = 1,
    delta_divisor: int = 1000,
) -> DeviationGrid:
    """Build the deviation grid for ``agent`` against the other bids in ``profile``.

    ``delta`` defaults to 1/``delta_divisor`` of the smallest gap between
    the other agents' bids; refinement checks shrink it through the divisor.
    """
    by_value: dict = {}
    pairs = []
    for j, b in enumerate(profile.bids):
        if j == agent:
            continue
        if b in by_value:
            pairs.append((by_value[b], j))
        else:
            by_value[b] = j
    if pairs:
        raise DuplicateBids(pairs)
    others = sorted(by_value)
    gaps = [hi - lo for lo, hi in zip(others, others[1:])]
    min_gap = min(gaps)
    delta = rational(delta) if delta is not None else min_gap / delta_divisor
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")

    candidates = set()
    for lo, hi in zip(others, others[1:]):
        span = hi - lo
        for t in range(1, resolution + 1):
            candidates.add(lo + span * t / (resolution + 1))
    for b in others:
        candidates.add(b - delta)
        candidates.add(b + delta)
    candidates.add(others[0] - delta)
    candidates.add(others[-1] + delta)
    if others[0] - delta < 0 and others[0] > 0:
        # keep the below-minimum piece reachable when delta would go negative
        candidates.add(others[0] / 2)

    taken = set(others)
    kept = tuple(sorted(c for c in candidates if c >= 0 and c not in taken))
    return DeviationGrid(agent=agent, delta=delta, resolution=resolution, candidates=kept)


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
    shares = ",".join(str(s) for s in initial.shares)
    bids = ",".join(str(b) for b in profile.bids)
    return f"n={config.n} m_bar={config.m_bar} shares=[{shares}] bids=[{bids}]"


def _utilities(engine, initial, profile, config, valuations, agents):
    """The expected adjusted utilities of ``agents`` when ``profile`` is bid.

    The real mechanism reads them off the integer kernel; any other engine
    is run and its outcome goes through the reference definition, one agent
    at a time as the caller consumes them.
    """
    if engine is run_expected:
        eu = expected_adjusted_utilities(initial, profile, config, valuations)
        return (eu[j] for j in agents)
    expected = engine(initial, profile, config)
    return (expected_adjusted_utility(initial, expected, valuations, j) for j in agents)


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
        final = branch.final_allocation
        for agent in range(config.n):
            cases += 1
            v = valuations.bids[agent]
            gain = (final.shares[agent] - initial.shares[agent]) * v + (
                final.money[agent] - initial.money[agent]
            )
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


def _random_rational(rng: random.Random, lo_num: int = 1, hi_num: int = 2**14):
    return Rational(rng.randint(lo_num, hi_num), 2**12)


def check_price_monotonicity(
    initial: Allocation,
    profile: BidProfile,
    config: MbmConfig,
    trials: int,
    seed: int = 0,
    engine=run_expected,
) -> PropertyReport:
    """Raising one bid never lowers the price; lowering one never raises it.

    Perturbations are random but tie-avoiding, drawn from a generator seeded
    by ``seed`` so the oracle is deterministic.
    """
    name = "price-monotonicity"
    instance = describe_instance(initial, profile, config)
    rng = random.Random(seed)
    base_price = engine(initial, profile, config).high_branch.price
    others_by_agent = [
        {b for j, b in enumerate(profile.bids) if j != i} for i in range(config.n)
    ]
    cases = 0
    for _ in range(trials):
        agent = rng.randrange(config.n)
        old = profile.bids[agent]
        raise_bid = rng.random() < 0.5 or old == 0
        candidate = None
        for _attempt in range(100):
            r = _random_rational(rng)
            if raise_bid:
                cand = old * (ONE + r) if old > 0 else r
            else:
                cand = old * r / (r + 1)  # strictly inside (0, old)
            if cand not in others_by_agent[agent]:
                candidate = cand
                break
        if candidate is None:
            continue
        perturbed = profile.replace_bid(agent, candidate)
        new_price = engine(initial, perturbed, config).high_branch.price
        cases += 1
        ok = new_price >= base_price if raise_bid else new_price <= base_price
        if not ok:
            direction = "raised" if raise_bid else "lowered"
            return _violation(
                name,
                instance,
                cases,
                f"agent {agent} {direction} bid {old} -> {candidate}; "
                f"price moved {base_price} -> {new_price}",
                agent=agent,
                bids=perturbed.bids,
            )
    return PropertyReport(name, instance, holds=True, cases=cases)


def check_strategyproofness(
    initial: Allocation,
    valuations: BidProfile,
    config: MbmConfig,
    others_profile: BidProfile | None = None,
    delta=None,
    resolution: int = 1,
    delta_divisor: int = 1000,
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
    cases = 0
    for agent in range(config.n):
        truthful = others_profile.replace_bid(agent, valuations.bids[agent])
        (truthful_eu,) = _utilities(
            engine, initial, truthful, config, valuations, (agent,)
        )
        grid = deviation_grid(
            others_profile,
            agent,
            delta=delta,
            resolution=resolution,
            delta_divisor=delta_divisor,
        )
        for cand in grid.candidates:
            deviant = others_profile.replace_bid(agent, cand)
            (eu,) = _utilities(engine, initial, deviant, config, valuations, (agent,))
            cases += 1
            if eu > truthful_eu:
                return _violation(
                    name,
                    instance,
                    cases,
                    f"agent {agent} (value {valuations.bids[agent]}) gains "
                    f"{eu - truthful_eu} by bidding {cand}",
                    agent=agent,
                    bids=deviant.bids,
                    utility_delta=eu - truthful_eu,
                )
    return PropertyReport(name, instance, holds=True, cases=cases)


def check_weak_group_strategyproofness(
    initial: Allocation,
    valuations: BidProfile,
    config: MbmConfig,
    grid_resolution: int = 1,
    delta=None,
    delta_divisor: int = 1000,
    budget: int = DEFAULT_SEARCH_BUDGET,
    engine=run_expected,
) -> PropertyReport:
    """No coalition deviation makes every member strictly better off.

    Enumerates all coalitions of size >= 2 and searches the product of the
    members' deviation grids. Joint assignments that reintroduce ties are
    skipped (the grids avoid all truthful bids, but two members may draw the
    same candidate). Raises SearchBudgetExceeded rather than subsampling
    when the product search would exceed ``budget`` evaluations.

    Weak gains are expected and must not be flagged: a threshold agent can
    move the price in her neighbors' favor while staying at zero herself.
    """
    name = "weak-group-strategyproofness"
    instance = describe_instance(initial, valuations, config)
    n = config.n
    truthful_eu = tuple(
        _utilities(engine, initial, valuations, config, valuations, range(n))
    )
    grids = [
        deviation_grid(
            valuations, j, delta=delta, resolution=grid_resolution, delta_divisor=delta_divisor
        ).candidates
        for j in range(n)
    ]

    required = 0
    coalitions = []
    for size in range(2, n + 1):
        for coalition in itertools.combinations(range(n), size):
            weight = 1
            for j in coalition:
                weight *= len(grids[j])
            required += weight
            coalitions.append(coalition)
    if required > budget:
        raise SearchBudgetExceeded(required, budget)

    # candidates by position in their sorted union: tie tests compare ints
    values = sorted(set().union(*grids))
    position = {c: k for k, c in enumerate(values)}
    keyed = [tuple(map(position.__getitem__, grid)) for grid in grids]
    cases = 0
    for coalition in coalitions:
        for keys in itertools.product(*(keyed[j] for j in coalition)):
            cases += 1
            if len(set(keys)) < len(keys):
                continue  # joint ties: outside the mechanism's domain
            combo = tuple(map(values.__getitem__, keys))
            bids = list(valuations.bids)
            for j, bid in zip(coalition, combo):
                bids[j] = bid
            deviant = BidProfile(tuple(bids))
            gains = _utilities(engine, initial, deviant, config, valuations, coalition)
            if all(eu > truthful_eu[j] for j, eu in zip(coalition, gains)):
                return _violation(
                    name,
                    instance,
                    cases,
                    f"coalition {coalition} all strictly gain by bidding "
                    f"{tuple(str(b) for b in combo)}",
                    coalition=coalition,
                    bids=deviant.bids,
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
    (1) any two agents with positive final shares keep their initial share
    ratio exactly (compared by cross-multiplication, which also covers
    zero-share buyers), and (2) no agent cashed out values the asset
    strictly more than any remaining owner.
    """
    name = "pp-expost-efficiency"
    instance = describe_instance(initial, valuations, config)
    expected = engine(initial, valuations, config)
    cases = 0
    for branch in expected.branches:
        final = branch.final_allocation
        owners = [j for j in range(config.n) if final.shares[j] > 0]
        out = [j for j in range(config.n) if final.shares[j] == 0]
        for j, k in itertools.combinations(owners, 2):
            cases += 1
            if final.shares[j] * initial.shares[k] != final.shares[k] * initial.shares[j]:
                return _violation(
                    name,
                    instance,
                    cases,
                    f"branch m={branch.realized_m}: owners {j},{k} moved from "
                    f"ratio {initial.shares[j]}:{initial.shares[k]} to "
                    f"{final.shares[j]}:{final.shares[k]}",
                    bids=valuations.bids,
                )
        for j in out:
            for k in owners:
                cases += 1
                if valuations.bids[j] > valuations.bids[k]:
                    return _violation(
                        name,
                        instance,
                        cases,
                        f"branch m={branch.realized_m}: seller {j} values the "
                        f"asset at {valuations.bids[j]}, above owner {k}'s "
                        f"{valuations.bids[k]}",
                        agent=j,
                        bids=valuations.bids,
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
        order = high.ranking.order
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
