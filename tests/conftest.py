import os

import pytest
from hypothesis import HealthCheck, settings

from mbm import Allocation, BidProfile, MbmConfig
from mbm.rational import Rational as Q

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
