"""Finer walks than the oracles take, the cross-checks for their searches.

The oracles search one fixed grid; these helpers re-run the single-agent
search on a grid ten times finer and score it through the reference
definition, so a verdict that depends on the grid's spacing shows up as a
disagreement between the two. ``pattern_walk`` stands in for the deviation
search's threshold classes with one point per rank pattern, each ranked
and scored in full by ``utility_ratios``, the full-sort reference for the
search's one readout of the three agent types.
"""

import itertools

from mbm import expected_adjusted_utility, properties, run_expected
from mbm.core import _bid_order, _branches, _masses, _priced_ratios
from mbm.suites import generate_suite, run_suite


def utility_ratios(a, d, m_bar, w, values, agents):
    """Each of ``agents``' expected adjusted utility times d * e, as (numerator,
    denominator), with the whole profile w ranked: shares a[i] / d, bids w and
    true values integers over one denominator e. ``core._priced_ratios`` at
    the bid ranked m_bar, with H and L from ``core._branches`` on the
    ``_masses`` of w's ``_bid_order``; raises what ``run_expected`` raises once
    the shares check out, in the same order."""
    order = _bid_order(w)
    (_, high, _), (_, low, _) = _branches(_masses(order, a), d, m_bar)
    return _priced_ratios(a, d, w[order[m_bar - 1]], high, low, w, values, agents)


def refined_candidates(profile, agent):
    """Ten evenly spaced points inside every gap between the other bids,
    points a ten-thousandth of the smallest gap above and below each other
    bid, and half the lowest other bid when that step would reach below zero;
    sorted, without negative bids or the other agents' own bids."""
    others = sorted(b for j, b in enumerate(profile.bids) if j != agent)
    gaps = list(zip(others, others[1:]))
    delta = min(hi - lo for lo, hi in gaps) / 10_000
    candidates = {lo + (hi - lo) * t / 11 for lo, hi in gaps for t in range(1, 11)}
    for b in others:
        candidates.add(b - delta)
        candidates.add(b + delta)
    if others[0] - delta < 0 and others[0] > 0:
        candidates.add(others[0] / 2)
    taken = set(others)
    return tuple(sorted(c for c in candidates if c >= 0 and c not in taken))


def refined_sp_holds(initial, valuations, config, others_profile, engine=run_expected):
    """True when no agent gains over truthful bidding on the refined grid.

    Each profile goes through ``engine``, then ``expected_adjusted_utility``.
    """

    def utility(agent, bid):
        profile = others_profile.replace_bid(agent, bid)
        expected = engine(initial, profile, config)
        return expected_adjusted_utility(initial, expected, valuations, agent)

    for agent in range(config.n):
        truthful = utility(agent, valuations.bids[agent])
        candidates = refined_candidates(others_profile, agent)
        if any(utility(agent, c) > truthful for c in candidates):
            return False
    return True


def pattern_points(m_bar: int, base, coalition):
    """(walked, w) for each rank pattern of ``coalition`` that leaves rank
    m_bar to a non-member: one tie-free bid list on it, and the patterns
    walked so far.

    ``base`` holds the fixed bids as distinct integers, each a multiple of
    n + 1. A pattern places the members at distinct ranks and the
    non-members in their fixed order around them; its point keeps the
    non-members' bids and puts each member one above the bid below her (0
    at the bottom). A pattern that needs a member below a zero bid has no
    point and is skipped.
    """
    n, k = len(base), len(coalition)
    # the non-members' bids, descending, over -1 for the bottom
    fixed = sorted((base[j] for j in range(n) if j not in coalition), reverse=True) + [-1]
    for walked, ranks in enumerate(itertools.permutations(range(n), k), 1):
        if m_bar - 1 in ranks:
            continue  # that member gets 0, no more than her truthful utility
        placed = sorted(zip(ranks, coalition))
        w = list(base)
        slot = None
        # from the lowest member up: the i-th from the top sits above fixed[rank - i]
        for i in range(k - 1, -1, -1):
            rank, j = placed[i]
            if rank - i != slot:
                slot = rank - i
                bid = fixed[slot]
            bid += 1
            if slot and bid >= fixed[slot - 1]:
                break  # a member below a zero bid
            w[j] = bid
        else:
            yield walked, w


def pattern_walk(ranking, a, d, m_bar, base, values, coalition):
    """``properties._classes`` walked on rank patterns: (walked, w, ratios)
    for each of ``pattern_points``, every point ranked and scored in full
    by ``utility_ratios``; the search's ``ranking`` is not read. Where
    both decide a coalition, their verdicts agree; a violation's walked
    count differs."""
    for walked, w in pattern_points(m_bar, base, coalition):
        yield walked, w, utility_ratios(a, d, m_bar, w, values, coalition)


def walk_verdicts(n_values):
    """{"classes": ..., "patterns": ...}: (holds, cases) of the sp suite
    (others drawn from seed 7) and of group-sp with its budget lifted,
    on ``generate_suite(10, seed=7)`` at each n, walked on the threshold
    classes and again with ``pattern_walk`` in their place."""
    classes = properties._classes
    out = {}
    for name, walk in (("classes", classes), ("patterns", pattern_walk)):
        properties._classes = walk
        try:
            verdicts = []
            for n in n_values:
                instances = generate_suite(10, seed=7, n_range=(n, n))
                for suite in ("sp", "group-sp"):
                    reports = run_suite(suite, instances, seed=7, budget=10**40)
                    verdicts.append([[r.holds, r.cases] for r in reports])
            out[name] = verdicts
        finally:
            properties._classes = classes
    return out
