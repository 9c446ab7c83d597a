"""Instance generation: determinism, tie-freeness, exact simplex membership."""

import random

import pytest

from mbm import InstanceSpec, SpecInvalid, generate, rank_bids
from mbm.instances import perturbed_profile
from mbm.rational import ZERO, Rational as Q


def test_generate_is_deterministic():
    spec = InstanceSpec(n=5, m_bar=3, seed=123)
    assert generate(spec) == generate(spec)
    different = generate(InstanceSpec(n=5, m_bar=3, seed=124))
    assert different != generate(spec)


def test_equal_uniform_grid_reproduces_reference_instance():
    initial, profile, config = generate(
        InstanceSpec(n=4, share_model="equal", valuation_model="uniform-grid", m_bar=2)
    )
    assert initial.shares == (Q(1, 4),) * 4
    assert profile.bids == (Q(1), Q(3, 4), Q(1, 2), Q(1, 4))
    assert config.m_bar == 2


def test_tiny_top_share_below_millionth():
    initial, profile, _ = generate(
        InstanceSpec(n=6, share_model="tiny-top", m_bar=3, seed=9)
    )
    top = max(range(6), key=profile.bids.__getitem__)
    assert initial.shares[top] < Q(1, 10**6)
    others = [initial.shares[i] for i in range(6) if i != top]
    assert len(set(others)) == 1


def test_generated_instances_never_tie():
    for seed in range(200):
        _, profile, _ = generate(InstanceSpec(n=6, m_bar=3, seed=seed))
        rank_bids(profile)  # raises DuplicateBids on any tie


def test_generated_shares_sit_exactly_on_simplex():
    for seed in range(50):
        for model in ("equal", "random", "tiny-top"):
            initial, _, _ = generate(
                InstanceSpec(n=5, share_model=model, m_bar=2, seed=seed)
            )
            assert sum(initial.shares, ZERO) == 1
            assert all(s >= 0 for s in initial.shares)


def test_spec_validation():
    with pytest.raises(SpecInvalid, match=r"^need more than 2 agents, got n=2$"):
        generate(InstanceSpec(n=2, m_bar=1))
    message = r"^m_bar must satisfy 1 < m_bar < n, got m_bar=1, n=4$"
    with pytest.raises(SpecInvalid, match=message):
        generate(InstanceSpec(n=4, m_bar=1))
    with pytest.raises(SpecInvalid, match=r"m_bar=4, n=4$"):
        generate(InstanceSpec(n=4, m_bar=4))
    with pytest.raises(SpecInvalid):
        generate(InstanceSpec(n=4, m_bar=2, share_model="zipf"))
    with pytest.raises(SpecInvalid):
        generate(InstanceSpec(n=4, m_bar=2, valuation_model="normal"))


def test_perturbed_profile_avoids_all_collisions():
    for seed in range(50):
        rng = random.Random(seed)
        _, profile, _ = generate(InstanceSpec(n=6, m_bar=3, seed=seed))
        others = perturbed_profile(profile, rng)
        rank_bids(others)
        combined = set(profile.bids) | set(others.bids)
        assert len(combined) == 12  # no bid collides across the two profiles
        assert others.bids != profile.bids
