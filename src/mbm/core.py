"""Exact engine for the Multi-BMBY share-restructuring mechanism.

The mechanism reduces the owner set of a jointly held asset. Each of the
n > 2 shareholders seals one bid for the whole asset. The planner fixes a
target owner count m_bar with 1 < m_bar < n. Agents are ranked by bid,
descending, and the asset price is the m_bar-th highest bid. The eventual
owner count m is randomized between m_bar and m_bar - 1; the probability of
m = m_bar equals the combined initial share of the m_bar highest bidders,
which is exactly the weighting that cancels the threshold bidder's expected
gain. The top m bidders buy everyone else out: each buyer's share grows by
the factor 1 / (combined buyer share) and she pays for the share mass she
gains at the asset price; each seller's full stake is cashed out at the
asset price.

All arithmetic is exact rational arithmetic; there is no rounding anywhere
in this module. Every outcome comes from one computation, ``run_expected``,
which works on integer numerators: shares and bids are scaled once per
instance to integers over their least common denominators, and rationals
are made only for the returned outcome.
Every type is an immutable value and every operation is a pure function of
its inputs, so results are safe to share across threads.
``draw_branch`` and ``realize`` are the only randomized entry points; each
takes an int seed or a caller-owned generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import (
    DegenerateBuyerMass,
    DuplicateBids,
    InvalidAllocation,
    InvalidConfig,
    InvalidOwnerCount,
)
from .rational import ZERO, Rational, as_ratio, rational

_RATIONAL_TYPE = type(ZERO)


def _freeze(values: Iterable) -> tuple:
    # fast path: leave already-coerced rationals untouched
    return tuple(
        v if type(v) is _RATIONAL_TYPE else rational(v) for v in values
    )


def _over_lcm(values) -> tuple:
    """(numerators, L): ``values`` as integers over their least common denominator L."""
    ratios = list(map(as_ratio, values))
    lcm = math.lcm(*[q for _, q in ratios])
    return [p * (lcm // q) for p, q in ratios], lcm


def _simplex_numerators(shares) -> tuple:
    """(a, D) with share i = a[i] / D; InvalidAllocation unless on the simplex."""
    a, d = _over_lcm(shares)
    if a and min(a) < 0:
        i = next(i for i, x in enumerate(a) if x < 0)
        raise InvalidAllocation(f"agent {i} has negative share {shares[i]}")
    total = sum(a)
    if total != d:
        raise InvalidAllocation(f"shares sum to {Rational(total, d)}, expected exactly 1")
    return a, d


@dataclass(frozen=True)
class Allocation:
    """Shares and money balances for all n agents.

    Valid allocations keep every share non-negative with shares summing to
    exactly 1 (a point on the n-simplex); money entries are unrestricted in
    sign. ``validate`` checks the simplex contract explicitly instead of the
    constructor so that conservation oracles have something real to verify
    on mechanism output.
    """

    shares: tuple
    money: tuple

    def __post_init__(self):
        object.__setattr__(self, "shares", _freeze(self.shares))
        object.__setattr__(self, "money", _freeze(self.money))
        if len(self.shares) != len(self.money):
            raise InvalidAllocation(
                f"{len(self.shares)} shares but {len(self.money)} money entries"
            )

    @classmethod
    def from_shares(cls, shares: Sequence) -> "Allocation":
        """Initial allocation: given shares, all money balances zero."""
        shares = _freeze(shares)
        return cls(shares, (ZERO,) * len(shares))

    @classmethod
    def _from_parts(cls, shares: tuple, money: tuple) -> "Allocation":
        # internal fast path: caller guarantees coerced equal-length tuples
        self = object.__new__(cls)
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "money", money)
        return self

    @property
    def n(self) -> int:
        return len(self.shares)

    def validate(self) -> "Allocation":
        """Raise InvalidAllocation unless shares are a point on the simplex."""
        _simplex_numerators(self.shares)
        return self


@dataclass(frozen=True)
class BidProfile:
    """One sealed bid per agent for the whole asset, each non-negative.

    Ties are representable (so that tie detection can be tested) but every
    ranked operation rejects them with DuplicateBids.
    """

    bids: tuple

    def __post_init__(self):
        object.__setattr__(self, "bids", _freeze(self.bids))
        for i, b in enumerate(self.bids):
            if b < 0:
                raise ValueError(f"agent {i} bid {b} is negative")

    @property
    def n(self) -> int:
        return len(self.bids)

    def replace_bid(self, agent: int, bid) -> "BidProfile":
        """Profile with one agent's bid swapped out (used by deviation search)."""
        bids = list(self.bids)
        bids[agent] = rational(bid)
        return BidProfile(tuple(bids))


@dataclass(frozen=True)
class Ranking:
    """Descending order of agents by bid.

    ``order[k]`` is the agent holding rank k + 1 (rank 1 = highest bid);
    ``rank_of[i]`` is agent i's 1-based rank. The two are mutual inverses.
    """

    order: tuple
    rank_of: tuple

    def agent_at(self, rank: int) -> int:
        """Agent holding the given 1-based rank."""
        return self.order[rank - 1]


@dataclass(frozen=True)
class MbmConfig:
    """Agent count n and threshold owner count m_bar, with n > 2 and 1 < m_bar < n."""

    n: int
    m_bar: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n <= 2:
            raise InvalidConfig(f"need more than 2 agents, got n={self.n}")
        if not isinstance(self.m_bar, int) or not 1 < self.m_bar < self.n:
            raise InvalidConfig(
                f"m_bar must satisfy 1 < m_bar < n, got m_bar={self.m_bar}, n={self.n}"
            )


@dataclass(frozen=True)
class MechanismOutcome:
    """One realized branch: owner count, price, probability, final state."""

    realized_m: int
    price: Rational
    branch_probability: Rational
    final_allocation: Allocation
    ranking: Ranking


@dataclass(frozen=True)
class ExpectedOutcome:
    """Both branches of the owner-count lottery (m = m_bar and m = m_bar - 1).

    Probabilities sum to exactly 1; a zero-probability branch (possible when
    some initial shares are zero) is retained since it contributes nothing
    to expectations but keeps the algebra intact.
    """

    high_branch: MechanismOutcome
    low_branch: MechanismOutcome

    @property
    def branches(self) -> tuple:
        return (self.high_branch, self.low_branch)


SeedLike = Union[int, random.Random]


def _check_sizes(n_entries: int, config: MbmConfig, what: str) -> None:
    if n_entries != config.n:
        raise InvalidConfig(f"{what} has {n_entries} entries, config expects n={config.n}")


def _bid_order(bids: tuple) -> tuple:
    """(order, w, E): agents by bid descending, with bid i = w[i] / E.

    Ranks on the integers w. Raises InvalidConfig below 3 bids and
    DuplicateBids on any tie.
    """
    n = len(bids)
    if n < 3:
        raise InvalidConfig(f"need at least 3 bids, got {n}")
    w, e = _over_lcm(bids)
    if len(set(w)) != n:
        seen: dict = {}
        pairs = []
        for i, x in enumerate(w):
            if x in seen:
                pairs.append((seen[x], i))
            else:
                seen[x] = i
        raise DuplicateBids(pairs)
    return tuple(sorted(range(n), key=w.__getitem__, reverse=True)), w, e


def _ranking(order: tuple) -> Ranking:
    rank_of = [0] * len(order)
    for pos, agent in enumerate(order, 1):
        rank_of[agent] = pos
    return Ranking(order=order, rank_of=tuple(rank_of))


def rank_bids(profile: BidProfile) -> Ranking:
    """Rank agents by bid, descending; reject ties with DuplicateBids."""
    return _ranking(_bid_order(profile.bids)[0])


def threshold_price(profile: BidProfile, config: MbmConfig) -> Rational:
    """The asset price: the m_bar-th highest bid."""
    _check_sizes(profile.n, config, "bid profile")
    ranking = rank_bids(profile)
    return profile.bids[ranking.agent_at(config.m_bar)]


def branch_probabilities(
    initial: Allocation, ranking: Ranking, config: MbmConfig
) -> tuple:
    """(P(m = m_bar), P(m = m_bar - 1)).

    The high branch gets the combined initial share of the m_bar highest
    bidders -- bidders, not largest shareholders -- and the low branch the
    rest, so the two sum to exactly 1.
    """
    _check_sizes(initial.n, config, "allocation")
    a, d = _simplex_numerators(initial.shares)
    high = sum(map(a.__getitem__, ranking.order[: config.m_bar]))
    return (Rational(high, d), Rational(d - high, d))


def _check_buyer_mass(mass, m: int) -> None:
    if mass == 0:
        raise DegenerateBuyerMass(
            f"all {m} prospective buyers hold zero initial shares"
        )


def apply_branch(
    initial: Allocation, profile: BidProfile, config: MbmConfig, m: int
) -> MechanismOutcome:
    """One branch of the owner-count lottery: the m-branch of ``run_expected``.

    Buyers (rank <= m) scale their stake by 1 + S_sell/S_buy and pay
    stake * (S_sell/S_buy) * price; sellers (rank > m) drop to zero shares
    and collect stake * price. The price is the m_bar-th highest bid in
    both branches. Payments add to whatever money the initial allocation
    carries; conservation is a statement about the deltas. Raises what
    ``run_expected`` raises, so DegenerateBuyerMass if either branch's
    buyers hold nothing, whichever m is asked for.
    """
    _check_sizes(initial.n, config, "allocation")
    _check_sizes(profile.n, config, "bid profile")
    if m not in (config.m_bar, config.m_bar - 1):
        raise InvalidOwnerCount(
            f"owner count {m} not in {{m_bar - 1, m_bar}} = "
            f"{{{config.m_bar - 1}, {config.m_bar}}}"
        )
    expected = run_expected(initial, profile, config)
    return expected.high_branch if m == config.m_bar else expected.low_branch


def _branch_kernel(initial: Allocation, profile: BidProfile, config: MbmConfig) -> tuple:
    """Check one instance and compute both branches' integer numerators.

    Returns (order, a, d, w, e, branches): agents by bid descending, share
    i = a[i] / d, bid i = w[i] / e, and for m = m_bar and m = m_bar - 1 the
    triple (m, buyer mass A_B, probability numerator), both over d.
    Raises, in this order: InvalidConfig on a size mismatch (allocation
    first), InvalidAllocation off the simplex, InvalidConfig below 3 bids,
    DuplicateBids on a tie, and DegenerateBuyerMass for a branch whose
    buyers hold nothing (high branch first).
    """
    _check_sizes(initial.n, config, "allocation")
    _check_sizes(profile.n, config, "bid profile")
    a, d = _simplex_numerators(initial.shares)
    order, w, e = _bid_order(profile.bids)
    m_bar = config.m_bar
    high = sum(map(a.__getitem__, order[:m_bar]))
    low = high - a[order[m_bar - 1]]
    _check_buyer_mass(high, m_bar)
    _check_buyer_mass(low, m_bar - 1)
    return order, a, d, w, e, ((m_bar, high, high), (m_bar - 1, low, d - high))


def run_expected(
    initial: Allocation, profile: BidProfile, config: MbmConfig
) -> ExpectedOutcome:
    """Both branches with their probabilities; consumes no randomness.

    Computed from ``_branch_kernel``'s integer numerators: a buyer ends with
    a_i / A_B and pays a_i (d - A_B) w_t / (d A_B e), a seller collects
    a_i w_t / (d e), where w_t / e is the price. Rationals are made only
    for the returned outcome; payments add to the initial money. Rankings
    are recomputed from the given profile on every call, never reused
    across profiles.
    """
    order, a, d, w, e, branches = _branch_kernel(initial, profile, config)
    n = len(order)
    ranking = _ranking(order)
    threshold = order[config.m_bar - 1]
    price = profile.bids[threshold]
    u = w[threshold]
    # agents ranked m_bar or lower sell in the low branch, the same stake at
    # the same price as in the high branch
    proceeds = {i: Rational(a[i] * u, d * e) for i in order[config.m_bar - 1 :]}
    base = initial.money if any(initial.money) else None
    outcomes = []
    for m, mass, prob in branches:
        shares = [ZERO] * n
        money = [ZERO] * n
        cost, per = (d - mass) * u, d * mass * e
        for i in order[:m]:
            shares[i] = Rational(a[i], mass)
            money[i] = Rational(-a[i] * cost, per)
        for i in order[m:]:
            money[i] = proceeds[i]
        if base is not None:
            money = [x + y for x, y in zip(base, money)]
        outcomes.append(
            MechanismOutcome(
                realized_m=m,
                price=price,
                branch_probability=Rational(prob, d),
                final_allocation=Allocation._from_parts(tuple(shares), tuple(money)),
                ranking=ranking,
            )
        )
    return ExpectedOutcome(high_branch=outcomes[0], low_branch=outcomes[1])


# the name under which benchmarks/spans.py traces the engine
_run_expected = run_expected


def expected_adjusted_utilities(
    initial: Allocation, profile: BidProfile, config: MbmConfig, valuations: BidProfile
) -> tuple:
    """Every agent's expected adjusted utility, read off the integer kernel.

    Equals ``expected_adjusted_utility(initial, run_expected(initial,
    profile, config), valuations, j)`` for every agent j, and raises what
    ``run_expected`` raises, but builds no outcome.
    With price u / e, value p / q, buyer masses H (high branch) and L (low)
    over d: the threshold agent gets 0, an agent ranked above m_bar (a
    buyer in both branches) a_j (d - H)(p e - u q) / (d L q e), and one
    ranked below m_bar (a seller in both) -a_j (p e - u q) / (d q e).
    Initial money cancels out of every utility change.
    """
    order, a, d, w, e, ((m_bar, high, _), (_, low, _)) = _branch_kernel(
        initial, profile, config
    )
    u = w[order[m_bar - 1]]
    out = [ZERO] * len(order)
    for pos, j in enumerate(order):
        if pos == m_bar - 1:
            continue
        p, q = as_ratio(valuations.bids[j])
        gain = a[j] * (p * e - u * q)
        if pos < m_bar:
            out[j] = Rational(gain * (d - high), d * low * q * e)
        else:
            out[j] = Rational(-gain, d * q * e)
    return tuple(out)


def draw_branch(expected: ExpectedOutcome, seed: SeedLike) -> MechanismOutcome:
    """One draw of the owner-count lottery: the branch it selects.

    ``seed`` is an int (a fresh generator is derived from it, so equal
    seeds and outcomes give equal branches) or a ``random.Random`` instance
    for callers drawing many realizations in sequence. The draw is exact:
    an integer below P(m = m_bar)'s reduced denominator is compared against
    its numerator, so no floating point enters the branch choice.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p_high = expected.high_branch.branch_probability
    hit_high = rng.randrange(int(p_high.denominator)) < int(p_high.numerator)
    return expected.high_branch if hit_high else expected.low_branch


# a draw loop asks for one instance's outcome again and again; the bound is
# small because one outcome at n = 300 takes about 100 KiB
_realize_expected = lru_cache(maxsize=16)(run_expected)


def realize(
    initial: Allocation, profile: BidProfile, config: MbmConfig, seed: SeedLike
) -> MechanismOutcome:
    """Sample the owner-count lottery and return the realized branch.

    ``draw_branch`` on this instance's ``run_expected`` outcome, with
    ``seed`` as there. Repeated draws on one instance reuse its outcome.
    """
    return draw_branch(_realize_expected(initial, profile, config), seed)


def adjusted_utility(
    initial: Allocation,
    outcome: MechanismOutcome,
    valuations: BidProfile,
    agent: int,
) -> Rational:
    """Utility change for one agent: u(final) - u(initial), u(s, x) = s*v + x.

    Uses the agent's entry in ``valuations`` as her true value; pass the bid
    profile itself for utilities at face value.
    """
    v = valuations.bids[agent]
    final = outcome.final_allocation
    return (final.shares[agent] - initial.shares[agent]) * v + (
        final.money[agent] - initial.money[agent]
    )


def expected_adjusted_utility(
    initial: Allocation,
    expected: ExpectedOutcome,
    valuations: BidProfile,
    agent: int,
) -> Rational:
    """Probability-weighted utility change over both branches.

    For the agent ranked exactly m_bar this is identically zero -- whatever
    her true value -- because the branch weights cancel the buyer-side and
    seller-side terms exactly.
    """
    total = ZERO
    for branch in expected.branches:
        total += branch.branch_probability * adjusted_utility(
            initial, branch, valuations, agent
        )
    return total
