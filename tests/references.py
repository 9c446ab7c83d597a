"""Long-hand definitions of oracle and welfare shortcuts, kept as references.

``check_pp_expost_efficiency`` compares each owner with one reference owner
and each cashed-out agent with the lowest-valuing owner, and
``check_weak_group_strategyproofness`` sizes its search with a product
formula. The first two helpers spell both out the long way: every pair of
agents, every coalition. The third states the deviation grid's rule in
rationals, as the searches built it before they built it on integers.
The last two are budget balance and individual rationality as sums and
utilities of rationals, as the oracles computed them before they read the
outcome over common denominators. The tests require equal verdicts,
witnesses, counts and candidates.

The welfare pair states expected welfare and a sweep row in ``Fraction``s,
as the welfare module computed them before it read them off prefix sums
and integer closed forms; the tests require equal values and errors.
``fraction_welfare_report`` states the whole welfare report on
``fraction_run_expected``'s branches instead.

``fraction_run_expected`` is the mechanism itself, written from the paper's
definitions in ``Fraction``s with nothing from ``mbm.core``: the engine's
kernel, masses, branches and settlement are all held to it.
``fraction_utilities`` is an agent's adjusted utility, written the same way:
core's integer utility readers are held to it on that reference's branches.

The csv pair writes ``mbm run --format csv``'s report and ``mbm welfare``'s
table through ``csv.writer``, as both commands wrote them before they wrote
fixed-template lines; the tests require equal bytes. The welfare one prints
each value from the rationals a sweep row makes when read.

The instance pair draws a generated instance and a perturbed profile in
``Fraction``s, as ``mbm.instances`` drew them before it drew them as integer
numerators over one denominator; the tests require equal rationals, equal
integer forms and the same generator state afterwards.
"""

import csv
import io
import itertools
import math
import random
from fractions import Fraction

from mbm import (
    Allocation,
    BidProfile,
    DegenerateBuyerMass,
    InvalidAlpha,
    MbmConfig,
    SweepRow,
    run_expected,
)
from mbm.core import _reject_ties
from mbm.properties import PropertyReport, Witness, _violation, describe_instance
from mbm.rational import ZERO, decimal_approx, ratio_pair, ratio_str, rational_str


def pairwise_pp_efficiency(initial, valuations, config, engine=run_expected):
    """pp-efficiency over every owner pair and every seller-owner pair; a
    seller with zero initial share is compared but never flagged.

    Returns a PropertyReport; its ``cases`` counts the pairs compared.
    """
    name = "pp-expost-efficiency"
    instance = describe_instance(initial, valuations, config)
    expected = engine(initial, valuations, config)
    cases = 0

    def violation(detail, agent=None):
        witness = Witness(detail=detail, agent=agent, bids=valuations.bids)
        return PropertyReport(name, instance, holds=False, cases=cases, witness=witness)

    for branch in expected.branches:
        final = branch.final_allocation
        owners = [j for j in range(config.n) if final.shares[j] > 0]
        out = [j for j in range(config.n) if final.shares[j] == 0]
        for j, k in itertools.combinations(owners, 2):
            cases += 1
            if final.shares[j] * initial.shares[k] != final.shares[k] * initial.shares[j]:
                return violation(
                    f"branch m={branch.realized_m}: owners {j},{k} moved from "
                    f"ratio {initial.shares[j]}:{initial.shares[k]} to "
                    f"{final.shares[j]}:{final.shares[k]}"
                )
        for j in out:
            for k in owners:
                cases += 1
                # a zero initial stake cannot have been cashed out
                if initial.shares[j] and valuations.bids[j] > valuations.bids[k]:
                    return violation(
                        f"branch m={branch.realized_m}: seller {j} values the "
                        f"asset at {valuations.bids[j]}, above owner {k}'s "
                        f"{valuations.bids[k]}",
                        agent=j,
                    )
    return PropertyReport(name, instance, holds=True, cases=cases)


def enumerated_coalition_budget(grids):
    """Joint deviations of every coalition of two or more agents, one by one:
    the sum over coalitions of the product of their members' grid sizes."""
    n = len(grids)
    return sum(
        math.prod(len(grids[j]) for j in coalition)
        for size in range(2, n + 1)
        for coalition in itertools.combinations(range(n), size)
    )


def fraction_deviation_grid(profile, agent):
    """The deviation candidates for ``agent``, built in rationals: a sorted tuple.

    Midpoints of the gaps between consecutive other-bids, each other-bid
    plus and minus a thousandth of the smallest gap, half the lowest
    other-bid when that step would reach below zero; negatives and the
    other-bids themselves dropped.
    """
    indexed = [(j, b) for j, b in enumerate(profile.bids) if j != agent]
    _reject_ties(indexed)
    others = sorted(b for _, b in indexed)
    gaps = list(zip(others, others[1:]))
    delta = min(hi - lo for lo, hi in gaps) / 1000
    candidates = {(lo + hi) / 2 for lo, hi in gaps}
    for b in others:
        candidates.add(b - delta)
        candidates.add(b + delta)
    if others[0] - delta < 0 and others[0] > 0:
        candidates.add(others[0] / 2)
    taken = set(others)
    return tuple(sorted(c for c in candidates if c >= 0 and c not in taken))


def fraction_budget_balance(initial, profile, config, engine=run_expected):
    """Budget balance on sums of rationals: shares and money totals per branch."""
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


def fraction_individual_rationality(initial, valuations, config, engine=run_expected):
    """Individual rationality on ``fraction_utilities``, branch by branch, agent by agent."""
    name = "individual-rationality"
    instance = describe_instance(initial, valuations, config)
    expected = engine(initial, valuations, config)
    cases = 0
    for branch in expected.branches:
        final = branch.final_allocation
        gains = fraction_utilities(initial, [(1, final.shares, final.money)], valuations)
        for agent, gain in enumerate(gains):
            cases += 1
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


def fraction_run_expected(initial, profile, config):
    """Both branches of the mechanism, m = m_bar first, each as (realized_m,
    price, branch_probability, final shares, final money, order): agents
    sorted by bid, descending; the price is the bid ranked m_bar; P(high) is
    the top m_bar's share mass. In the branch with m owners the top m buy:
    each buyer's share is scaled by 1 / (their mass) and she pays the price
    for the share she gains, and each seller is cashed out at the price.

    Reads only ``.shares``, ``.money``, ``.bids`` and the config. Raises
    DegenerateBuyerMass, with the engine's message, for a branch whose buyers
    hold nothing, the high branch first.
    """
    shares, money, bids = initial.shares, initial.money, profile.bids
    m_bar = config.m_bar
    order = tuple(sorted(range(config.n), key=bids.__getitem__, reverse=True))
    price = bids[order[m_bar - 1]]
    high = sum((shares[i] for i in order[:m_bar]), Fraction(0))
    branches = []
    for m, probability in ((m_bar, high), (m_bar - 1, 1 - high)):
        buyers = order[:m]
        mass = sum((shares[i] for i in buyers), Fraction(0))
        if mass == 0:
            raise DegenerateBuyerMass(f"all {m} prospective buyers hold zero initial shares")
        final_shares, final_money = [], []
        for i in range(config.n):
            if i in buyers:
                final_shares.append(shares[i] / mass)
                final_money.append(money[i] - (shares[i] / mass - shares[i]) * price)
            else:
                final_shares.append(Fraction(0))
                final_money.append(money[i] + shares[i] * price)
        branches.append((m, price, probability, tuple(final_shares), tuple(final_money), order))
    return tuple(branches)


def fraction_utilities(initial, branches, valuations):
    """Every agent's adjusted utility over ``branches``, each (probability,
    final shares, final money): the sum over the branches of the probability
    times (s' - s) v + (x' - x), for her initial share s and money x, her
    final s' and x' and her value v."""
    return tuple(
        sum((p * ((shares[j] - s) * v + (money[j] - x)) for p, shares, money in branches),
            Fraction(0))
        for j, (s, x, v) in enumerate(zip(initial.shares, initial.money, valuations.bids))
    )


def fraction_utility_table(initial, profile, config, valuations):
    """(expected, high, low): ``fraction_utilities`` on ``fraction_run_expected``'s
    branches, weighted by their probabilities and each alone at weight 1."""
    weighted = [(p, s, x) for _, _, p, s, x, _ in fraction_run_expected(initial, profile, config)]
    alone = (fraction_utilities(initial, [(1, s, x)], valuations) for _, s, x in weighted)
    return (fraction_utilities(initial, weighted, valuations), *alone)


def branch_fields(expected):
    """An ``ExpectedOutcome``'s branches in ``fraction_run_expected``'s shape."""
    return tuple(
        (b.realized_m, b.price, b.branch_probability, b.final_allocation.shares,
         b.final_allocation.money, b.order)
        for b in expected.branches
    )


def fraction_welfare_report(initial, valuations, config):
    """(initial welfare, expected welfare, first-best, preservation ratio), as
    ``welfare_report``'s fields: the share-weighted valuation sum at the initial
    shares, the sum over ``fraction_run_expected``'s branches of P_B times it
    at the branch's final shares, the top valuation, and the expected welfare
    over it. Raises what ``fraction_run_expected`` raises."""
    values = valuations.bids

    def welfare(shares):
        return sum((s * v for s, v in zip(shares, values)), Fraction(0))

    branches = fraction_run_expected(initial, valuations, config)
    expected = sum((p * welfare(shares) for _, _, p, shares, _, _ in branches), Fraction(0))
    best = max(values)
    return welfare(initial.shares), expected, best, expected / best


def fraction_expected_welfare(initial, valuations, config):
    """Expected welfare branch by branch, in rationals: P(high) = H and
    P(low) = 1 - H, where H and L are the initial shares of the top m_bar and
    m_bar - 1 bidders, and a branch's buyers hold share_i / mass of the asset.

    Raises DegenerateBuyerMass for a branch whose buyers hold nothing, the
    high branch first.
    """
    order = sorted(range(config.n), key=valuations.bids.__getitem__, reverse=True)
    return _branch_welfare(initial.shares, valuations.bids, order, config.m_bar)


def _branch_welfare(shares, values, order, m_bar):
    """P(high) times the top m_bar buyers' welfare plus P(low) times the top m_bar - 1's."""
    mass = held = Fraction(0)
    for i in order[: m_bar - 1]:
        mass += shares[i]
        held += shares[i] * values[i]
    low, low_held = mass, held
    top = order[m_bar - 1]
    high = low + shares[top]
    high_held = low_held + shares[top] * values[top]
    for m, buyers in ((m_bar, high), (m_bar - 1, low)):
        if buyers == 0:
            raise DegenerateBuyerMass(f"all {m} prospective buyers hold zero initial shares")
    return high * high_held / high + (1 - high) * low_held / low


def fraction_sweep_row(n, alpha):
    """One sweep row in rationals on equal shares 1/n and valuations (n - i)/n:
    the two-branch sum, (2 - alpha)/2 + (2 - alpha)/(2n), engine over first-best
    and the closed form minus (2 - alpha)/2.

    Raises InvalidAlpha, with ``welfare_sweep``'s messages, unless alpha * n
    is an integer in 2..n-1.
    """
    alpha = Fraction(alpha)
    m_bar = alpha * n
    if m_bar.denominator != 1:
        raise InvalidAlpha(f"alpha={alpha} with n={n}: alpha * n is not an integer")
    m_bar = int(m_bar)
    if not 2 <= m_bar <= n - 1:
        raise InvalidAlpha(
            f"alpha={alpha} with n={n}: alpha must lie in {{2/n, ..., (n-1)/n}}"
        )
    # agent i values the asset at (n - i)/n, so the bid order is 0, 1, ..., n - 1
    values = [Fraction(n - i, n) for i in range(n)]
    engine = _branch_welfare([Fraction(1, n)] * n, values, range(n), m_bar)
    limit = (2 - alpha) / 2
    closed = limit + (2 - alpha) / (2 * n)
    return SweepRow(
        n=n, alpha=alpha, m_bar=m_bar, closed_form=closed, engine=engine,
        preservation_ratio=engine / max(values), limit_gap=closed - limit,
    )


def csv_writer_run_report(report):
    """``report.to_csv()`` through ``csv.writer``, one list of cells per agent row."""
    high, low = report.expected.branches
    buf = io.StringIO()
    w = report.welfare
    buf.write(
        f"# captable={report.captable} n={report.config.n} m_bar={report.config.m_bar} "
        f"mode={report.mode} seed={report.seed}\n"
        f"# price={rational_str(high.price)} "
        f"p_high={rational_str(high.branch_probability)} "
        f"p_low={rational_str(low.branch_probability)}\n"
        f"# welfare_initial={rational_str(w.initial_welfare)} "
        f"welfare_expected={rational_str(w.expected_mbm_welfare)} "
        f"first_best={rational_str(w.first_best)} "
        f"preservation_ratio={rational_str(w.preservation_ratio)}\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow((
        "branch", "owner_count", "probability", "agent_id", "rank", "bid",
        "initial_share", "final_share", "final_share_approx", "payment",
        "payment_approx", "adjusted_utility", "expected_adjusted_utility",
    ))
    eus = [ratio_str(*u) for u in report.expected_utilities]
    for outcome, rows in report._shown(ratio_str):
        probability = rational_str(outcome.branch_probability)
        head = [report._label(outcome), outcome.realized_m, probability]
        for (agent_id, rank, bid, share, final, payment, utility), eu in zip(rows, eus):
            writer.writerow([
                *head, agent_id, rank, bid, share, *ratio_pair(*final),
                *ratio_pair(*payment), ratio_str(*utility), eu,
            ])
    return buf.getvalue()


def csv_writer_welfare(rows):
    """``mbm welfare``'s stdout for sweep ``rows`` through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "alpha", "sw_closed_form", "sw_engine", "preservation_ratio",
                     "limit_gap", "sw_approx"))
    writer.writerows(
        (row.n, *map(rational_str, (row.alpha, row.closed_form, row.engine,
                                    row.preservation_ratio, row.limit_gap)),
         decimal_approx(row.closed_form))
        for row in rows
    )
    return buf.getvalue()


def fraction_generate(spec):
    """``generate`` in ``Fraction``s: bids k / 4096 for k sampled from 1..65536 (or
    the valuation grid), shares as random weights over their total, 1 / n
    each, or 1 / 2^21 for the top bidder and the rest split evenly."""
    n = spec.n
    rng = random.Random(spec.seed)
    if spec.valuation_model == "uniform-grid":
        bids = tuple(Fraction(n - i, n) for i in range(n))
    else:
        bids = tuple(Fraction(k, 2**12) for k in rng.sample(range(1, 16 * 2**12 + 1), n))
    if spec.share_model == "equal":
        shares = (Fraction(1, n),) * n
    elif spec.share_model == "random":
        weights = [rng.randint(1, 2**16) for _ in range(n)]
        shares = tuple(Fraction(w, sum(weights)) for w in weights)
    else:
        tiny = Fraction(1, 2**21)
        top = max(range(n), key=bids.__getitem__)
        shares = tuple(tiny if i == top else (1 - tiny) / (n - 1) for i in range(n))
    config = MbmConfig(n=n, m_bar=spec.m_bar)
    return Allocation.from_shares(shares).validate(), BidProfile(bids), config


def fraction_perturbed_profile(valuations, rng):
    """``perturbed_profile`` in ``Fraction``s: each value v moved to v (1 + j / 16384)
    for a jitter j in -4095..4095, a zero value to k / 4096 for k in 1..4096,
    drawn again until the bid is new."""
    grain = 2**12
    taken = set(valuations.bids)
    bids = []
    for v in valuations.bids:
        while True:
            jitter = Fraction(rng.randint(-grain + 1, grain - 1), 4 * grain)
            cand = v * (1 + jitter) if v > 0 else Fraction(rng.randint(1, grain), grain)
            if cand >= 0 and cand not in taken:
                break
        taken.add(cand)
        bids.append(cand)
    return BidProfile(tuple(bids))
