"""Social-welfare analytics for the restructuring mechanism.

Welfare is the share-weighted sum of valuations: seller compensation is an
internal transfer and never enters it. Because the mechanism concentrates
ownership on the highest-valuing agents while preserving their proportions,
its expected welfare can only improve on the initial allocation, and
shrinking the target owner count only helps. The benchmark it is measured
against is first-best welfare -- handing the whole asset to the single
highest-valuing agent -- which no budget-balanced, incentive-compatible
trade can reach in general.

The equal-shares / uniform-valuation-grid family (valuations (n-i+1)/n,
every initial share 1/n, m_bar = alpha * n) admits closed forms, evaluated
here exactly and cross-checked against the general engine. In that family
the preserved fraction of first-best welfare is (2-alpha)/2 + (2-alpha)/(2n):
above one half everywhere, decaying linearly in alpha, and approaching
(2-alpha)/2 as n grows. Outside it the preserved fraction can be driven
arbitrarily close to zero; ``efficiency_loss_instance`` constructs the
offending instances.

Welfare is read off the engine's integer kernel (``core._kernel``). Its
prefix share masses give every branch's buyer mass, and prefix sums of
a_i * w_i along the same bid order (``_held``) its buyer welfare, both by
lookup; both branches share one denominator, so the expected welfare is a
single rational. A sweep builds the kernel and its prefix sums once per n;
at alpha = k/n the closed form is (2n - k)(n + 1) / 2n^2 on integers, so a
row is a fixed number of integer operations, with no sum over the buyers
and no rational per row: it keeps each value as (p, q) and makes its
rationals only when they are read.

Everything here assumes truthful bidding, where the mechanism's welfare
statement lives; all functions are pure, and sweeps over (n, alpha) grids
can safely run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .core import Allocation, BidProfile, MbmConfig
from .core import _branches, _built, _kernel, _OnRead
from .errors import InvalidAlpha, InvalidConfig
from .rational import ONE, ZERO, Rational, as_ratio, rational, rational_str


@dataclass(frozen=True)
class WelfareReport:
    """Welfare before, welfare after (in expectation), and the benchmark."""

    initial_welfare: Rational
    expected_mbm_welfare: Rational
    first_best: Rational
    preservation_ratio: Rational


def social_welfare(allocation: Allocation, valuations: BidProfile) -> Rational:
    """Share-weighted valuation sum; money balances are excluded.

    Raises InvalidConfig when the allocation and the valuations differ in size.
    """
    if allocation.n != valuations.n:
        raise InvalidConfig(
            f"allocation has {allocation.n} shares, valuations have {valuations.n} entries"
        )
    total = ZERO
    for s, v in zip(allocation.shares, valuations.bids):
        total += s * v
    return total


def _held(order: tuple, a, w) -> list:
    """Prefix sums of a_i * w_i along the bid order: ``held[m]`` sums the top m bidders."""
    return list(accumulate((a[i] * w[i] for i in order), initial=0))


def _welfare(held, d: int, e: int, branches) -> tuple:
    """Expected welfare as (num, den) off kernel numerators: shares a_i / d, valuations w_i / e.

    A branch's m buyers end with a_i / A_B of the asset and its sellers with
    nothing: it adds P_B / d * held[m] / (A_B * e). The two branches, high
    (buyer mass H) and low (L), go over one denominator d * H * L * e.
    """
    (m_high, high, p_high), (m_low, low, p_low) = branches
    return p_high * held[m_high] * low + p_low * held[m_low] * high, d * high * low * e


def expected_mbm_welfare(
    initial: Allocation, valuations: BidProfile, config: MbmConfig
) -> Rational:
    """Probability-weighted welfare over both branches: ``welfare_report``'s
    ``expected_mbm_welfare``, with ``run_expected``'s checks and errors."""
    return welfare_report(initial, valuations, config).expected_mbm_welfare


def welfare_report(
    initial: Allocation, valuations: BidProfile, config: MbmConfig
) -> WelfareReport:
    """Initial, expected and first-best welfare, all off one kernel.

    One pass of prefix sums (``_held``) serves both welfares: the initial
    welfare is held[n] / (d * e), its sum over every agent. First-best is
    the kernel's tie-free top bid.
    """
    return _welfare_report(_kernel(initial, valuations, config), config.m_bar)


def _welfare_report(kernel: tuple, m_bar: int) -> WelfareReport:
    """``welfare_report`` off ``_kernel``'s (order, mass, a, d, w, e): each
    value one rational, made from integers; first-best is w[order[0]] / e."""
    order, mass, a, d, w, e = kernel
    held = _held(order, a, w)
    num, den = _welfare(held, d, e, _branches(mass, d, m_bar))
    best = w[order[0]]
    return WelfareReport(
        initial_welfare=Rational(held[-1], d * e),
        expected_mbm_welfare=Rational(num, den),
        first_best=Rational(best, e),
        preservation_ratio=Rational(num * e, den * best),
    )


# --- equal shares, uniform valuation grid ----------------------------------


def uniform_grid_valuations(n: int) -> BidProfile:
    """The valuation grid 1, (n-1)/n, ..., 1/n (agent 0 highest); empty for n < 1."""
    if n < 1:
        return BidProfile(())
    return BidProfile._from_form(range(n, 0, -1), n)


def uniform_grid_instance(n: int, m_bar: int):
    """Equal shares with the uniform valuation grid, ready to run; InvalidConfig for n <= 2."""
    config = MbmConfig(n=n, m_bar=m_bar)
    return Allocation._from_form([1] * n, n), uniform_grid_valuations(n), config


def _m_bar_from_alpha(n: int, alpha: Rational) -> int:
    """m_bar = alpha * n for an already parsed alpha; InvalidAlpha unless in 2..n-1."""
    p, q = as_ratio(alpha)
    if n * p % q:
        raise InvalidAlpha(f"alpha={rational_str(alpha)} with n={n}: alpha * n is not an integer")
    # int(): a Fraction built from another numbers.Rational can keep non-int
    # Integral parts, and MbmConfig takes only int
    m_bar = int(n * p // q)
    if not 2 <= m_bar <= n - 1:
        raise InvalidAlpha(
            f"alpha={rational_str(alpha)} with n={n}: alpha must lie in {{2/n, ..., (n-1)/n}}"
        )
    return m_bar


def _owner_counts(n: int) -> range:
    """The admissible m_bar for n agents, 2..n-1; MbmConfig's InvalidConfig for n <= 2."""
    MbmConfig(n=n, m_bar=2)
    return range(2, n)


def uniform_grid_welfare(n: int, alpha) -> Rational:
    """Closed-form expected welfare on the equal-shares, uniform-grid family.

    Equals (2 - alpha)/2 + (2 - alpha)/(2n) with alpha = m_bar/n. First-best
    welfare is 1 on this family, so this is also the preserved fraction.
    """
    return Rational(*_closed_forms(n, _m_bar_from_alpha(n, rational(alpha)))[0])


def _closed_forms(n: int, k: int) -> tuple:
    """The closed form and its gap above the limit (2 - alpha)/2 at alpha = k/n,
    as (p, q) pairs: (2n - k)(n + 1) / 2n^2 and (2n - k) / 2n^2."""
    return ((2 * n - k) * (n + 1), 2 * n * n), (2 * n - k, 2 * n * n)


@dataclass(frozen=True)
class SweepRow:
    """One (n, alpha) point of the closed-form-versus-engine sweep.

    A row keeps its five rationals as (p, q) pairs in ``_form``, in field
    order; one from ``welfare_sweep`` makes them when they are first read."""

    n: int
    alpha: Rational = _OnRead(lambda row, _: Rational(*row._form[0]))
    m_bar: int
    closed_form: Rational = _OnRead(lambda row, _: Rational(*row._form[1]))
    engine: Rational = _OnRead(lambda row, _: Rational(*row._form[2]))
    preservation_ratio: Rational = _OnRead(lambda row, _: Rational(*row._form[3]))
    limit_gap: Rational = _OnRead(lambda row, _: Rational(*row._form[4]))

    def __post_init__(self):
        values = self.alpha, self.closed_form, self.engine, self.preservation_ratio, self.limit_gap
        object.__setattr__(self, "_form", tuple(as_ratio(rational(x)) for x in values))


def _grid_point(n: int):
    """``(alpha as (p, q), m_bar) -> SweepRow`` at n for a valid m_bar, on one
    engine kernel built at the first row.

    The prefix sums (``_held``) are built with the kernel, so each row reads
    its branch triples off the kernel's share masses and costs a fixed
    number of integer operations and no rational.
    """
    kernel = None

    def point(alpha: tuple, m_bar: int) -> SweepRow:
        nonlocal kernel
        if kernel is None:
            order, mass, a, d, w, e = _kernel(*uniform_grid_instance(n, m_bar))
            kernel = mass, d, e, _held(order, a, w), w[order[0]]
        mass, d, e, held, top = kernel
        p, q = _welfare(held, d, e, _branches(mass, d, m_bar))
        closed_form, limit_gap = _closed_forms(n, m_bar)
        # the preservation ratio is over first-best, the top valuation top / e
        form = alpha, closed_form, (p, q), (p * e, q * top), limit_gap
        return _built(SweepRow, n=n, m_bar=m_bar, _form=form)

    return point


def sweep_point(n: int, alpha) -> SweepRow:
    """Evaluate one (n, alpha) point along both routes, parsing and checking alpha once."""
    alpha = rational(alpha)
    return _grid_point(n)(as_ratio(alpha), _m_bar_from_alpha(n, alpha))


def welfare_sweep(n_values, alphas=None) -> tuple:
    """(rows, skipped): sweep rows for every n in ``n_values`` and every alpha.

    ``alphas`` defaults to every valid fraction k/n per n, walked as k on
    integers; an explicit list is parsed once and filtered to the fractions
    valid for each n, and ``skipped`` holds the InvalidAlpha error of each
    point filtered out, in sweep order.
    """
    alphas = alphas if alphas is None else [rational(alpha) for alpha in alphas]
    rows = []
    skipped = []
    for n in n_values:
        point = _grid_point(n)
        if alphas is None:
            rows += [point((k, n), k) for k in _owner_counts(n)]
            continue
        for alpha in alphas:
            try:
                rows.append(point(as_ratio(alpha), _m_bar_from_alpha(n, alpha)))
            except InvalidAlpha as exc:
                skipped.append(exc)
    return rows, skipped


# --- arbitrarily small preservation ratio ----------------------------------


def efficiency_loss_instance(epsilon):
    """An instance whose preserved fraction of first-best welfare is below epsilon.

    The highest-valuing agent gets a vanishing initial share (epsilon/8) and
    everyone else values the asset at scraps (at most 3 * epsilon/16), so
    whichever branch realizes, expected welfare stays below epsilon while
    first-best welfare is 1. Validate the claim through the engine, not by
    trusting this construction.
    """
    epsilon = rational(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {rational_str(epsilon)}")
    sigma = epsilon / 8
    tail = epsilon / 16
    shares = (sigma, *(((ONE - sigma) / 3),) * 3)
    valuations = BidProfile((ONE, 3 * tail, 2 * tail, tail))
    return Allocation.from_shares(shares), valuations, MbmConfig(n=4, m_bar=3)
