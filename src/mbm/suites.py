"""Named verification suites over generated instance batches.

The CLI's verify command and the acceptance tests both drive these. A suite
maps each generated instance through one oracle; reports come back in
generation order, so a fixed (count, seed, n-range) triple always produces
the same verdict list.
"""

from __future__ import annotations

import random

from .errors import InvalidConfig
from .instances import InstanceSpec, generate, perturbed_profile
from .properties import (
    DEFAULT_SEARCH_BUDGET,
    _check_budget,
    check_budget_balance,
    check_individual_rationality,
    check_pp_expost_efficiency,
    check_price_monotonicity,
    check_strategyproofness,
    check_weak_group_strategyproofness,
    run_expected,
)

SUITES = ("budget", "ir", "sp", "group-sp", "monotone", "efficiency")

# group coalition search stays tractable up to here; "all" skips bigger instances
GROUP_SP_MAX_N = 4


def generate_suite(count: int, seed: int, n_range=(3, 8)) -> list:
    """``count`` seeded instances with n drawn from ``n_range``, mixed models."""
    lo, hi = n_range
    if count < 0:
        raise InvalidConfig(f"instance count must not be negative, got {count}")
    if lo < 3:
        raise InvalidConfig(f"need more than 2 agents, got n_range {lo}..{hi}")
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        n = rng.randint(lo, hi)
        share_model = "random"
        if idx % 5 == 3:
            share_model = "equal"
        elif idx % 7 == 5:
            share_model = "tiny-top"
        valuation_model = "uniform-grid" if idx % 11 == 7 else "random"
        spec = InstanceSpec(
            n=n,
            share_model=share_model,
            valuation_model=valuation_model,
            m_bar=rng.randint(2, n - 1),
            seed=rng.randrange(2**62),
        )
        out.append(generate(spec))
    return out


def run_suite(
    suite: str,
    instances,
    seed: int = 0,
    engine=run_expected,
    budget: int = DEFAULT_SEARCH_BUDGET,
    group_max_n: int | None = None,
) -> list:
    """Run one named oracle suite over the instances; returns PropertyReports.

    ``seed`` draws the sp suite's perturbed others; a negative ``budget``
    raises InvalidArgument before any work, whatever the suite.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, pick from {SUITES}")
    _check_budget(budget)
    rng = random.Random(seed) if suite == "sp" else None
    reports = []
    for initial, profile, config in instances:
        if suite == "budget":
            report = check_budget_balance(initial, profile, config, engine=engine)
        elif suite == "ir":
            report = check_individual_rationality(initial, profile, config, engine=engine)
        elif suite == "monotone":
            report = check_price_monotonicity(initial, profile, config, engine=engine)
        elif suite == "sp":
            others = perturbed_profile(profile, rng)
            report = check_strategyproofness(
                initial, profile, config, others_profile=others, engine=engine
            )
        elif suite == "efficiency":
            report = check_pp_expost_efficiency(initial, profile, config, engine=engine)
        else:  # group-sp
            if group_max_n is not None and config.n > group_max_n:
                continue
            report = check_weak_group_strategyproofness(
                initial, profile, config, budget=budget, engine=engine
            )
        reports.append(report)
    return reports
