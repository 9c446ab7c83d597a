import os
import time

import pytest
from hypothesis import HealthCheck, settings

from mbm import Allocation, BidProfile, MbmConfig
from mbm.rational import BACKEND, Rational as Q

settings.register_profile(
    "mbm",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("mbm")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def subprocess_env():
    """This environment with ``src`` first on PYTHONPATH, for a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def worked():
    """The 3-agent worked instance: shares (1/2, 3/10, 1/5), bids (10, 5, 2), m_bar 2."""
    initial = Allocation.from_shares((Q(1, 2), Q(3, 10), Q(1, 5)))
    profile = BidProfile((Q(10), Q(5), Q(2)))
    config = MbmConfig(n=3, m_bar=2)
    return initial, profile, config


class Timer:
    """A timed criterion: ``finish`` prints one pass/fail line and asserts both."""

    def __init__(self, number, name, limit):
        self.number = number
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok else "FAIL"
        extra = f", {detail}" if detail else ""
        print(f"[criterion {self.number:02d}] {self.name}: {verdict} "
              f"({elapsed:.2f}s / limit {self.limit:g}s, {BACKEND} backend{extra})")
        assert ok, f"criterion {self.number} failed: {self.name}"
        assert elapsed < self.limit, (
            f"criterion {self.number} overran its {self.limit}s budget: {elapsed:.2f}s"
        )

    def __exit__(self, *exc):
        return False
