"""Seeded instance generation with tie-free guarantees.

Values are drawn as integer numerators over one denominator each (bids over
4096, share weights over their total, tiny-top shares over 2^21 (n - 1)),
so generated shares sit on the simplex exactly. One gcd brings each list to
the form ``core._over_lcm`` gives its values, and the allocation and profile
are built on it: no rational is made until a field is read. Bids are drawn
without replacement, which realizes the atomless-valuations assumption
constructively: no generated instance ever trips the tie detector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Allocation, BidProfile, MbmConfig, _bid_numerators, _reduced
from .errors import InvalidConfig, SpecInvalid

SHARE_MODELS = ("equal", "random", "tiny-top")
VALUATION_MODELS = ("uniform-grid", "random")

# tiny-top places the highest-valuing agent strictly below one millionth
_TINY_GRAIN = 2**21

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

    n = spec.n
    rng = random.Random(spec.seed)
    if spec.valuation_model == "uniform-grid":
        w, e = list(range(n, 0, -1)), n  # welfare's grid 1, (n - 1) / n, ..., 1 / n
    else:
        w, e = _reduced((rng.sample(range(1, 16 * _BID_GRAIN + 1), n), _BID_GRAIN))

    if spec.share_model == "equal":
        a, d = [1] * n, n
    elif spec.share_model == "random":
        weights = [rng.randint(1, _SHARE_GRAIN) for _ in range(n)]
        a, d = _reduced((weights, sum(weights)))
    else:  # the top bidder holds 1 / 2^21 and the others split the rest evenly
        top = max(range(n), key=w.__getitem__)
        tiny = [n - 1 if i == top else _TINY_GRAIN - 1 for i in range(n)]
        a, d = _reduced((tiny, _TINY_GRAIN * (n - 1)))

    return Allocation._from_form(a, d).validate(), BidProfile._from_form(w, e), config


def perturbed_profile(valuations: BidProfile, rng: random.Random) -> BidProfile:
    """An arbitrary non-truthful profile, tie-free against the valuations and itself.

    Used as the fixed others-profile in single-agent deviation suites, where
    the non-deviators need not bid truthfully.
    """
    w, e = _bid_numerators(valuations)
    # over 4 * 4096 * e a value v moved by j / (4 * 4096) is v (4 * 4096 + j),
    # and k / 4096 for a zero value is 4 e k
    grain = 4 * _BID_GRAIN
    taken = {grain * v for v in w}
    bids = []
    for v in w:
        while True:
            jitter = rng.randint(-_BID_GRAIN + 1, _BID_GRAIN - 1)
            cand = v * (grain + jitter) if v else 4 * e * rng.randint(1, _BID_GRAIN)
            if cand not in taken:
                break
        taken.add(cand)
        bids.append(cand)
    return BidProfile._from_form(*_reduced((bids, grain * e)))
