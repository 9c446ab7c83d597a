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
in this module. ``run_expected`` is the engine's one entry point, on
integer numerators: ``_kernel`` scales shares and bids once per instance
to integers over their least common denominators, ranks the bids and sums
the shares along that order; ``_branches`` reads both branches' buyer
masses off those sums; and ``_settle``, the one settlement, weights the
lottery and runs the buyout at a given price (the engine's is the bid
ranked m_bar). An ``Allocation`` or ``BidProfile`` gets its one integer
form (``_holdings``, ``_bid_numerators``) when it is built; one built on
integers makes its rationals when they are first read. ``_utilities`` is
the one integer reader of agents' adjusted utilities off an outcome, in one
branch or in expectation.
Every type is an immutable value and every operation is a pure function of
its inputs, so results are safe to share across threads (threads racing to
fill a field's rationals store equal values).
``draw_branch`` and ``realize`` are the only randomized entry points; each
takes an int seed or a caller-owned generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Sequence, Union

from .errors import DegenerateBuyerMass, DuplicateBids, InvalidAllocation, InvalidConfig
from .rational import ZERO, Rational, as_ratio, ratio_str, rational, rational_str


def _over_lcm(values) -> tuple:
    """(numerators, L): ``values`` as integers over their least common denominator L."""
    ratios = list(map(as_ratio, values))
    lcm = math.lcm(*[q for _, q in ratios])
    return [p * (lcm // q) for p, q in ratios], lcm


def _reduced(*forms) -> tuple:
    """``_over_lcm`` of the values x[i] / q of each form (x, q) in turn, q positive,
    on integers: one lcm of the q, then one gcd brings the common denominator down."""
    lcm = math.lcm(*[q for _, q in forms])
    scaled = [p * (lcm // q) for x, q in forms for p in x]
    g = math.gcd(lcm, *scaled)
    return [p // g for p in scaled], lcm // g


def _simplex_numerators(allocation) -> tuple:
    """``_holdings``' shares (a, d), share i = a[i] / d; InvalidAllocation off the simplex."""
    a, d = _holdings(allocation)[:2]
    if a and min(a) < 0:
        i = next(i for i, x in enumerate(a) if x < 0)
        raise InvalidAllocation(f"agent {i} has negative share {ratio_str(a[i], d)}")
    total = sum(a)
    if total != d:
        raise InvalidAllocation(f"shares sum to {ratio_str(total, d)}, expected exactly 1")
    return a, d


def _built(cls, **fields):
    """An instance of ``cls`` holding ``fields`` as given, unchecked."""
    self = object.__new__(cls)
    self.__dict__.update(fields)
    return self


class _OnRead:
    """A frozen dataclass's field that an instance built without it (``_built``)
    makes on the first read, as ``make(instance, field name)``, and keeps;
    ``default``, when given, is the dataclass field's default."""

    def __init__(self, make, *default):
        self.make, self.default = make, default

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, value, owner=None):
        if value is None:  # the dataclass asks for the field's default
            if self.default:
                return self.default[0]
            raise AttributeError(f"type object {owner.__name__!r} has no attribute {self.name!r}")
        made = value.__dict__[self.name] = self.make(value, self.name)
        return made


def _form_rationals(value, name: str) -> tuple:
    # the k-th field's numerators and denominator are _form[2k], _form[2k + 1]
    at = 2 * list(value.__dataclass_fields__).index(name)
    return tuple(Rational(x, value._form[at + 1]) for x in value._form[at])


@dataclass(frozen=True)
class Allocation:
    """Shares and money balances for all n agents.

    Valid allocations keep every share non-negative with shares summing to
    exactly 1 (a point on the n-simplex); money entries are unrestricted in
    sign. ``validate`` checks the simplex contract explicitly instead of the
    constructor so that conservation oracles have something real to verify
    on mechanism output.
    """

    shares: tuple = _OnRead(_form_rationals)
    money: tuple = _OnRead(_form_rationals)

    def __post_init__(self):
        object.__setattr__(self, "shares", tuple(map(rational, self.shares)))
        object.__setattr__(self, "money", tuple(map(rational, self.money)))
        if len(self.shares) != len(self.money):
            raise InvalidAllocation(
                f"{len(self.shares)} shares but {len(self.money)} money entries"
            )
        object.__setattr__(self, "_form", (*_over_lcm(self.shares), *_over_lcm(self.money)))

    @classmethod
    def from_shares(cls, shares: Sequence) -> "Allocation":
        """Initial allocation: given shares, all money balances zero."""
        return cls(shares, (ZERO,) * len(shares))

    @classmethod
    def _from_form(cls, a, d: int) -> "Allocation":
        """Shares a[i] / d, d positive, and zero money, kept on integers."""
        return _built(cls, _form=(a, d, [0] * len(a), 1))

    @property
    def n(self) -> int:
        return len(_holdings(self)[0])

    def validate(self) -> "Allocation":
        """Raise InvalidAllocation unless shares are a point on the simplex."""
        _simplex_numerators(self)
        return self


@dataclass(frozen=True)
class BidProfile:
    """One sealed bid per agent for the whole asset, each non-negative.

    Ties are representable (so that tie detection can be tested) but every
    ranked operation rejects them with DuplicateBids.
    """

    bids: tuple = _OnRead(_form_rationals)

    def __post_init__(self):
        object.__setattr__(self, "bids", tuple(map(rational, self.bids)))
        for i, b in enumerate(self.bids):
            if b.numerator < 0:
                raise ValueError(f"agent {i} bid {rational_str(b)} is negative")
        object.__setattr__(self, "_form", _over_lcm(self.bids))

    @classmethod
    def _from_form(cls, w, e: int) -> "BidProfile":
        """The bids w[i] / e, e positive, kept on integers."""
        if w and min(w) < 0:
            return cls(tuple(Rational(x, e) for x in w))  # raises as the constructor does
        return _built(cls, _form=(tuple(w), e))

    @property
    def n(self) -> int:
        return len(_bid_numerators(self)[0])

    def replace_bid(self, agent: int, bid) -> "BidProfile":
        """Profile with one agent's bid swapped out (used by deviation search)."""
        bids = list(self.bids)
        bids[agent] = rational(bid)
        return BidProfile(tuple(bids))


# the integer forms that the constructors and ``_from_form`` build: an
# allocation's (s, t, y, z), share i s[i] / t and money i y[i] / z, and a
# profile's (w, e), bid i w[i] / e; denominators positive, lists never mutated
_holdings = _bid_numerators = attrgetter("_form")


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
    """One realized branch: owner count, price, probability, final state, bid order."""

    realized_m: int
    price: Rational
    branch_probability: Rational
    final_allocation: Allocation
    order: tuple  # agents by bid, descending: order[k] holds rank k + 1


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


def _reject_ties(indexed) -> None:
    """Raise DuplicateBids, naming (first agent, later agent) per repeated value.

    ``indexed`` yields (agent, value) pairs; without a repeat nothing happens.
    """
    seen: dict = {}
    pairs = []
    for i, x in indexed:
        if x in seen:
            pairs.append((seen[x], i))
        else:
            seen[x] = i
    if pairs:
        raise DuplicateBids(pairs)


def _bid_order(w) -> tuple:
    """Agents by integer bid w descending.

    Raises InvalidConfig below 3 bids and DuplicateBids on any tie.
    """
    n = len(w)
    if n < 3:
        raise InvalidConfig(f"need at least 3 bids, got {n}")
    if len(set(w)) != n:
        _reject_ties(enumerate(w))
    return tuple(sorted(range(n), key=w.__getitem__, reverse=True))


def rank_bids(profile: BidProfile) -> tuple:
    """Agents by bid, descending; reject ties with DuplicateBids."""
    return _bid_order(_bid_numerators(profile)[0])


def _share_numerators(initial: Allocation, profile: BidProfile, config: MbmConfig) -> tuple:
    """(a, d) with share i = a[i] / d, once the sizes (allocation first) and the simplex check out."""
    _check_sizes(initial.n, config, "allocation")
    _check_sizes(profile.n, config, "bid profile")
    return _simplex_numerators(initial)


def _masses(order: tuple, a) -> list:
    """Prefix sums of the share numerators a along ``order``: ``mass[k]`` is the top k bidders'."""
    return list(accumulate(map(a.__getitem__, order), initial=0))


def _above(order: tuple, mass: list, a, moved, r: int) -> tuple:
    """(t, L): the r-th highest bidder t once the agents at positions ``moved``
    (ascending) leave ``order``, and the share mass L of those left above t, off
    ``_masses(order, a)``: each mover at or above the read shifts it and leaves L."""
    i, out = r - 1, 0
    for p in moved:
        if p > i:
            break
        i += 1
        out += a[order[p]]
    return order[i], mass[i] - out


def _lone(order: tuple, mass: list, a, w, p: int, m_bar: int):
    """``read(x, k=1) -> (u, H, L)``: the price u times k and both buyer masses
    when the agent j at position ``p`` of ``order`` alone bids x / (k e) and
    every other i bids w[i] / e, off ``_masses(order, a)``: the paper's three
    types, read by ``_above`` at ranks m_bar - 1 (t1) and m_bar (t2) of the
    others. Below t2's bid j sells and t2 sets the price; up to t1's bid she is
    the threshold agent; from there on she buys at t1's bid."""
    j = order[p]
    t1, low1 = _above(order, mass, a, (p,), m_bar - 1)
    t2, low2 = _above(order, mass, a, (p,), m_bar)

    def read(x, k=1):
        if x < k * w[t2]:
            return k * w[t2], low2 + a[t2], low2
        if x < k * w[t1]:
            return x, low2 + a[j], low2
        return k * w[t1], low2 + a[j], low1 + a[j]

    return read


def _kernel(initial: Allocation, profile: BidProfile, config: MbmConfig) -> tuple:
    """(order, mass, a, d, w, e): the instance on integers, ranked.

    Agents by bid descending, their ``_masses``, shares a[i] / d and bids
    w[i] / e; m_bar is not read. Raises, in this order: InvalidConfig on a
    size mismatch (allocation first), InvalidAllocation off the simplex,
    InvalidConfig below 3 bids and DuplicateBids on a tie.
    """
    a, d = _share_numerators(initial, profile, config)
    w, e = _bid_numerators(profile)
    order = _bid_order(w)
    return order, _masses(order, a), a, d, w, e


def _branches(mass, d: int, m_bar: int) -> tuple:
    """(m, buyer mass, probability numerator) for m = m_bar, m_bar - 1, over d.

    Reads only H = mass[m_bar] and L = mass[m_bar - 1], the buyer masses, and
    raises DegenerateBuyerMass for a branch whose buyers hold nothing, high first.
    """
    high, low = mass[m_bar], mass[m_bar - 1]
    if high == 0 or low == 0:
        m = m_bar if high == 0 else m_bar - 1
        raise DegenerateBuyerMass(f"all {m} prospective buyers hold zero initial shares")
    return (m_bar, high, high), (m_bar - 1, low, d - high)


def _settle(initial: Allocation, kernel: tuple, m_bar: int, p: int, q: int) -> ExpectedOutcome:
    """Both branches of the ranked instance, every trade settled at the price p / q.

    ``kernel`` is ``_kernel``'s, and ``_branches`` checks its masses first.
    With the buyer mass A_B, a buyer ends with a_i / A_B and pays
    a_i (d - A_B) p / (d A_B q) for the share mass she gains, and a seller
    collects a_i p / (d q) for her stake: shares over A_B and money over
    d A_B q, times c once the initial money x / c is added. Both branches
    carry the kernel's order and the price.
    """
    order, mass, a, d, _, _ = kernel
    branches = _branches(mass, d, m_bar)
    n = len(order)
    _, _, x, c = _holdings(initial)
    price = Rational(p, q)
    outcomes = []
    for m, buyers, prob in branches:
        s, y = [0] * n, [0] * n
        cost = (d - buyers) * p
        for i in order[:m]:
            s[i] = a[i]
            y[i] = -a[i] * cost
        for i in order[m:]:
            y[i] = a[i] * buyers * p
        z = d * buyers * q
        if any(x):
            y, z = [xi * z + yi * c for xi, yi in zip(x, y)], z * c
        outcomes.append(
            MechanismOutcome(
                realized_m=m,
                price=price,
                branch_probability=Rational(prob, d),
                final_allocation=_built(Allocation, _form=(s, buyers, y, z)),
                order=order,
            )
        )
    return ExpectedOutcome(high_branch=outcomes[0], low_branch=outcomes[1])


def run_expected(
    initial: Allocation, profile: BidProfile, config: MbmConfig
) -> ExpectedOutcome:
    """Both branches with their probabilities; consumes no randomness.

    ``_kernel`` ranks the instance on integers and ``_settle`` settles it at
    the bid ranked m_bar, w[threshold] / e.
    """
    kernel = _kernel(initial, profile, config)
    order, _, _, _, w, e = kernel
    return _settle(initial, kernel, config.m_bar, w[order[config.m_bar - 1]], e)


# the name under which benchmarks/spans.py traces the engine
_run_expected = run_expected


def _priced_ratios(a, d: int, u, high: int, low: int, w, values, agents) -> list:
    """Each of ``agents``' expected adjusted utility times d * e as (num, den),
    shares a[i] / d, at price u with buyer masses H (high branch) and L (low),
    bids w, values and u over one denominator e: the agent bidding u, the
    threshold agent, gets 0, one bidding above u (a buyer in both branches)
    a_j (d - H)(v_j - u) / L, and one below u (a seller in both)
    a_j (u - v_j) / 1. Initial money cancels."""
    rest = d - high
    out = []
    for j in agents:
        if w[j] > u:
            out.append((a[j] * rest * (values[j] - u), low))
        elif w[j] < u:
            out.append((a[j] * (u - values[j]), 1))
        else:
            out.append((0, 1))
    return out


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
    hit_high = rng.randrange(p_high.denominator) < p_high.numerator
    return expected.high_branch if hit_high else expected.low_branch


def realize(
    initial: Allocation, profile: BidProfile, config: MbmConfig, seed: SeedLike
) -> MechanismOutcome:
    """Sample the owner-count lottery and return the realized branch.

    ``draw_branch`` on this instance's ``run_expected`` outcome, with
    ``seed`` as there; nothing is kept between calls. For repeated draws on
    one instance, call ``run_expected`` once and ``draw_branch`` per draw.
    """
    return draw_branch(run_expected(initial, profile, config), seed)


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


def _weighted(expected: ExpectedOutcome) -> list:
    """Both branches as (p, q, final allocation), p / q the branch probability."""
    return [(*as_ratio(b.branch_probability), b.final_allocation) for b in expected.branches]


def _utilities(holdings: tuple, branches, agents, values, e: int):
    """Yield each of ``agents``' ``adjusted_utility`` times d * e, summed over
    ``branches``, as (num, den).

    ``holdings`` is ``_holdings(initial)``, and agent j's value is
    values[j] / e. Each branch is (p, q, final), final read once by
    ``_holdings``: leaving j share s / t and money y / z, it adds
    ((s d - a_j t) v_j z c + (y c - x_j z) d e t) p over t z c q. Weights
    1 / 1 read one branch, ``_weighted`` an outcome's expected utility; the
    terms add by cross-multiplication, unreduced, with den positive.
    """
    a, d, x, c = holdings
    de = d * e
    forms = [(p, q, *_holdings(final)) for p, q, final in branches]
    for j in agents:
        v, num, den = values[j], 0, 1
        for p, q, shares, t, money, z in forms:
            s, y = shares[j], money[j]
            term = ((s * d - a[j] * t) * v * z * c + (y * c - x[j] * z) * de * t) * p
            over = t * z * c * q
            num, den = num * over + term * den, den * over
        yield num, den


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
