"""Long-hand definitions of three oracle shortcuts, kept as references.

``check_pp_expost_efficiency`` compares each owner with one reference owner
and each cashed-out agent with the lowest-valuing owner, and
``check_weak_group_strategyproofness`` sizes its search with a product
formula. The first two helpers spell both out the long way: every pair of
agents, every coalition. The third states the deviation grid's rule in
rationals, as the searches built it before they built it on integers. The
tests require equal verdicts, witnesses, counts and candidates.
"""

import itertools
import math

from mbm import run_expected
from mbm.core import _reject_ties
from mbm.properties import PropertyReport, Witness, describe_instance


def pairwise_pp_efficiency(initial, valuations, config, engine=run_expected):
    """pp-efficiency over every owner pair and every seller-owner pair.

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
                if valuations.bids[j] > valuations.bids[k]:
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
