"""Rational backend: coercion rules and the stdlib fallback."""

import subprocess
import sys
import textwrap

import pytest

from mbm import NumeralOutOfBounds
from mbm.rational import ONE, ZERO, Rational as Q, rational


def test_rational_coercion_accepts_int_str_rational():
    assert rational(5) == Q(5)
    assert rational("0.3") == Q(3, 10)
    assert rational("3/10") == Q(3, 10)
    assert rational("2.5e-3") == Q(1, 400)
    assert rational(Q(7, 2)) == Q(7, 2)
    from fractions import Fraction

    assert rational(Fraction(1, 3)) == Q(1, 3)


def test_rational_coercion_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        rational(0.1)
    with pytest.raises(ValueError):
        rational("zebra")
    with pytest.raises(ValueError):
        rational("1/0")
    with pytest.raises(TypeError):
        rational(None)


def test_numeral_bounds():
    assert rational("9" * 1000) == Q(10**1000 - 1)
    assert rational("1e1000") == Q(10**1000)
    assert rational(" 2.5E-1000 ") == Q(5, 2 * 10**1000)
    for text in ("9" * 1001, "1e1001", "1e-1001", "2.5E+5000", "1e-1_001"):
        with pytest.raises(NumeralOutOfBounds):
            rational(text)
    assert issubclass(NumeralOutOfBounds, ValueError)


def test_canonical_form():
    assert str(Q(2, 4)) == "1/2"
    assert Q(1, -2) == Q(-1, 2)
    assert (ZERO, ONE) == (Q(0), Q(1))


def test_fraction_fallback_backend_runs_the_mechanism(subprocess_env):
    # block gmpy2 in a clean interpreter and drive the worked instance
    script = textwrap.dedent(
        """
        import sys
        sys.modules["gmpy2"] = None  # forces the ImportError fallback path

        from mbm.rational import BACKEND, Rational as Q
        assert BACKEND == "fractions", BACKEND

        from mbm import Allocation, BidProfile, MbmConfig, run_expected
        initial = Allocation.from_shares((Q(1, 2), Q(3, 10), Q(1, 5)))
        profile = BidProfile((Q(10), Q(5), Q(2)))
        expected = run_expected(initial, profile, MbmConfig(3, 2))
        assert expected.high_branch.price == 5
        assert expected.high_branch.final_allocation.shares == (Q(5, 8), Q(3, 8), Q(0))
        assert expected.high_branch.branch_probability == Q(4, 5)
        print("fallback ok")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env
    )
    assert proc.returncode == 0, proc.stderr
    assert "fallback ok" in proc.stdout
