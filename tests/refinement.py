"""A 10x refined deviation grid, the cross-check for ``deviation_grid``.

The oracles search one fixed grid; these helpers re-run the single-agent
search on a grid ten times finer and score it through the reference
definition, so a verdict that depends on the grid's spacing shows up as a
disagreement between the two.
"""

from mbm import expected_adjusted_utility, run_expected


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
