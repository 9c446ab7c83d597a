"""Seeded instance generation with tie-free guarantees.

Random rationals are drawn as integer numerators over fixed power-of-two
denominators and normalized by exact division, so generated shares sit on
the simplex exactly. Bids are drawn without replacement, which realizes the
atomless-valuations assumption constructively: no generated instance ever
trips the tie detector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Allocation, BidProfile, MbmConfig
from .errors import InvalidConfig, SpecInvalid
from .rational import ONE, Rational
from .welfare import uniform_grid_valuations

SHARE_MODELS = ("equal", "random", "tiny-top")
VALUATION_MODELS = ("uniform-grid", "random")

# tiny-top places the highest-valuing agent strictly below one millionth
_TINY_SHARE = Rational(1, 2**21)

_SHARE_GRAIN = 2**16
_BID_GRAIN = 2**12


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one generated instance; equal specs generate equal instances."""

    n: int
    share_model: str = "random"
    valuation_model: str = "random"
    m_bar: int = 2
    seed: int = 0


def _random_bids(n: int, rng: random.Random) -> tuple:
    numerators = rng.sample(range(1, 16 * _BID_GRAIN + 1), n)
    return tuple(Rational(k, _BID_GRAIN) for k in numerators)


def _random_shares(n: int, rng: random.Random) -> tuple:
    weights = [rng.randint(1, _SHARE_GRAIN) for _ in range(n)]
    total = sum(weights)
    return tuple(Rational(w, total) for w in weights)


def _tiny_top_shares(n: int, bids: tuple) -> tuple:
    top = max(range(n), key=bids.__getitem__)
    rest = (ONE - _TINY_SHARE) / (n - 1)
    return tuple(_TINY_SHARE if i == top else rest for i in range(n))


def generate(spec: InstanceSpec):
    """Generate (Allocation, BidProfile, MbmConfig) from a spec, deterministically."""
    try:
        config = MbmConfig(n=spec.n, m_bar=spec.m_bar)
    except InvalidConfig as exc:
        raise SpecInvalid(str(exc)) from exc
    if spec.share_model not in SHARE_MODELS:
        raise SpecInvalid(
            f"unknown share model {spec.share_model!r}, pick from {SHARE_MODELS}"
        )
    if spec.valuation_model not in VALUATION_MODELS:
        raise SpecInvalid(
            f"unknown valuation model {spec.valuation_model!r}, "
            f"pick from {VALUATION_MODELS}"
        )

    rng = random.Random(spec.seed)
    if spec.valuation_model == "uniform-grid":
        bids = uniform_grid_valuations(spec.n).bids
    else:
        bids = _random_bids(spec.n, rng)

    if spec.share_model == "equal":
        shares = (Rational(1, spec.n),) * spec.n
    elif spec.share_model == "random":
        shares = _random_shares(spec.n, rng)
    else:
        shares = _tiny_top_shares(spec.n, bids)

    return Allocation.from_shares(shares).validate(), BidProfile(bids), config


def perturbed_profile(valuations: BidProfile, rng: random.Random) -> BidProfile:
    """An arbitrary non-truthful profile, tie-free against the valuations and itself.

    Used as the fixed others-profile in single-agent deviation suites, where
    the non-deviators need not bid truthfully.
    """
    taken = set(valuations.bids)
    bids = []
    for v in valuations.bids:
        while True:
            jitter = Rational(rng.randint(-_BID_GRAIN + 1, _BID_GRAIN - 1), 4 * _BID_GRAIN)
            cand = v * (1 + jitter) if v > 0 else Rational(rng.randint(1, _BID_GRAIN), _BID_GRAIN)
            if cand >= 0 and cand not in taken:
                break
        taken.add(cand)
        bids.append(cand)
    return BidProfile(tuple(bids))
