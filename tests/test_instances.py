"""Instance generation: determinism, tie-freeness, exact simplex membership."""

import itertools
import random

import pytest

from mbm import InstanceSpec, SpecInvalid, generate, rank_bids
from mbm.core import _over_lcm
from mbm.instances import SHARE_MODELS, VALUATION_MODELS, perturbed_profile
from mbm.rational import ZERO, Rational as Q
from references import fraction_generate, fraction_perturbed_profile


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


def test_integer_draws_match_the_fraction_reference(monkeypatch):
    # generate and perturbed_profile draw integer numerators over one
    # denominator; the Fraction drawing gives equal rationals, the integer
    # forms are _over_lcm of those rationals, and both leave the generator in
    # the same state. A zero value takes the second draw of perturbed_profile
    made = []

    class Recorded(random.Random):
        def seed(self, *args, **kwargs):
            made.append(self)
            super().seed(*args, **kwargs)

    monkeypatch.setattr(random, "Random", Recorded)
    for n in range(3, 13):
        for share_model, valuation_model in itertools.product(SHARE_MODELS, VALUATION_MODELS):
            for seed in range(12):
                spec = InstanceSpec(n, share_model, valuation_model, m_bar=n - 1, seed=seed)
                initial, profile, config = generate(spec)
                ref = fraction_generate(spec)
                assert made[-2].getstate() == made[-1].getstate()
                made.clear()
                assert (initial, profile, config) == ref
                assert initial._form == (*_over_lcm(ref[0].shares), [0] * n, 1)
                w, e = _over_lcm(ref[1].bids)
                assert profile._form == (tuple(w), e)
                for valuations in (profile, profile.replace_bid(seed % n, 0)):
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    others = perturbed_profile(valuations, rng)
                    expected = fraction_perturbed_profile(valuations, ref_rng)
                    assert others == expected
                    assert rng.getstate() == ref_rng.getstate()
                    w, e = _over_lcm(expected.bids)
                    assert others._form == (tuple(w), e)


def test_generated_values_start_on_integers():
    # the drawn instance and the perturbed others keep only their integer
    # forms; rationals are made when a field is first read
    for seed in range(10):
        for model in SHARE_MODELS:
            initial, profile, _ = generate(InstanceSpec(n=5, share_model=model, seed=seed))
            others = perturbed_profile(profile, random.Random(seed))
            assert vars(initial).keys() == {"_form"}
            assert vars(profile).keys() == vars(others).keys() == {"_form"}
            assert others.bids and initial.shares and "shares" in vars(initial)
