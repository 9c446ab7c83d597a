"""Multi-BMBY share restructuring: exact mechanism engine plus verification oracles.

The package has five parts: ``core`` (types and the mechanism itself, all
exact rational arithmetic), ``properties`` (brute-force oracles for
strategyproofness, collusion-resistance, budget balance, individual
rationality, price monotonicity, and proportional ex-post efficiency),
``welfare`` (welfare analytics and closed forms for the equal-shares
uniform-valuations family), ``instances`` (seeded tie-free generators), and
the cap-table/CLI surface (``captable``, ``report``, ``suites``, ``cli``).
"""

from .core import (
    Allocation,
    BidProfile,
    ExpectedOutcome,
    MbmConfig,
    MechanismOutcome,
    adjusted_utility,
    expected_adjusted_utility,
    rank_bids,
    realize,
    run_expected,
)
from .errors import (
    DegenerateBuyerMass,
    DuplicateAgentId,
    DuplicateBids,
    InvalidAllocation,
    InvalidAlpha,
    InvalidArgument,
    InvalidConfig,
    InvalidNumeral,
    MbmError,
    NumeralOutOfBounds,
    ParseError,
    SearchBudgetExceeded,
    SharesDontSumToOne,
    SpecInvalid,
)
from .instances import InstanceSpec, generate, perturbed_profile
from .captable import CapTableRecord, parse_captable, to_instance
from .properties import (
    DeviationGrid,
    PropertyReport,
    Witness,
    check_budget_balance,
    check_individual_rationality,
    check_pp_expost_efficiency,
    check_price_monotonicity,
    check_strategyproofness,
    check_weak_group_strategyproofness,
    corrupted_engine,
    deviation_grid,
)
from .rational import Rational, rational
from .welfare import (
    SweepRow,
    WelfareReport,
    efficiency_loss_instance,
    expected_mbm_welfare,
    social_welfare,
    sweep_point,
    uniform_grid_welfare,
    welfare_report,
    welfare_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BidProfile",
    "CapTableRecord",
    "DegenerateBuyerMass",
    "DeviationGrid",
    "DuplicateAgentId",
    "DuplicateBids",
    "ExpectedOutcome",
    "InstanceSpec",
    "InvalidAllocation",
    "InvalidAlpha",
    "InvalidArgument",
    "InvalidConfig",
    "InvalidNumeral",
    "MbmConfig",
    "MbmError",
    "MechanismOutcome",
    "NumeralOutOfBounds",
    "ParseError",
    "PropertyReport",
    "Rational",
    "SearchBudgetExceeded",
    "SharesDontSumToOne",
    "SpecInvalid",
    "SweepRow",
    "WelfareReport",
    "Witness",
    "adjusted_utility",
    "check_budget_balance",
    "check_individual_rationality",
    "check_pp_expost_efficiency",
    "check_price_monotonicity",
    "check_strategyproofness",
    "check_weak_group_strategyproofness",
    "corrupted_engine",
    "deviation_grid",
    "efficiency_loss_instance",
    "expected_adjusted_utility",
    "expected_mbm_welfare",
    "generate",
    "parse_captable",
    "perturbed_profile",
    "rank_bids",
    "rational",
    "realize",
    "run_expected",
    "social_welfare",
    "sweep_point",
    "to_instance",
    "uniform_grid_welfare",
    "welfare_report",
    "welfare_sweep",
]
