"""A bounded-exhaustive instance space, zero shares included, as a standing gate.

``generate_suite`` never draws a zero share, so ``mbm verify`` never reaches
the zero-stake and degenerate paths. This space does: bids n, n - 1, ..., 1,
every composition of 6 into n shares over 6 (zeros included) and every
m_bar, at n = 3, 4 and 5 (28, 168 and 630 instances). The mechanism is
anonymous, so each instance relabels its agents by a seeded permutation:
fixing the order would hide a label bug.

Run with ``pytest tests/test_exhaustive.py -v -s`` to see the timing line.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

from mbm import Allocation, BidProfile, DegenerateBuyerMass, MbmConfig, properties, run_expected
from mbm.errors import MbmError
from mbm.rational import Rational as Q
from mbm.suites import SUITES, run_suite
from references import (
    branch_fields, fraction_run_expected, fraction_utility_table, fraction_welfare_report,
)
from refinement import pattern_walk
from test_core import utility_table
from test_welfare import report_fields

import mutants
from conftest import SRC, Timer

N_VALUES = (3, 4, 5)

# "suite n": the count of each outcome over the space. No suite finds a
# violation; every error is a degenerate truthful outcome (budget, ir and
# efficiency raise on exactly those) or a deviation that puts only
# zero-share agents on top
COUNTS = {
    **{
        f"{suite} {n}": {"DegenerateBuyerMass": bad, "holds": good}
        for suite in ("budget", "ir", "efficiency")
        for n, bad, good in ((3, 7, 21), (4, 35, 133), (5, 119, 511))
    },
    "sp 3": {"DegenerateBuyerMass": 18, "holds": 10},
    "sp 4": {"DegenerateBuyerMass": 98, "holds": 70},
    "sp 5": {"DegenerateBuyerMass": 333, "holds": 297},
    "group-sp 3": {"DegenerateBuyerMass": 18, "holds": 10},
    "group-sp 4": {"DegenerateBuyerMass": 108, "holds": 60},
    "group-sp 5": {"DegenerateBuyerMass": 415, "holds": 215},
    "monotone 3": {"DegenerateBuyerMass": 18, "holds": 10},
    "monotone 4": {"DegenerateBuyerMass": 98, "holds": 70},
    "monotone 5": {"DegenerateBuyerMass": 330, "holds": 300},
}


def space(n: int):
    """(initial, valuations, config) for every share composition over 6 and
    every m_bar at n agents, each relabelled by a permutation drawn from
    ``random.Random(n)``: agent i holds the p(i)-th share and bids n - p(i)."""
    rng = random.Random(n)
    for cuts in itertools.combinations(range(6 + n - 1), n - 1):
        bounds = (-1, *cuts, 6 + n - 1)
        parts = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        for m_bar in range(2, n):
            p = rng.sample(range(n), n)
            initial = Allocation.from_shares(tuple(Q(parts[p[i]], 6) for i in range(n)))
            valuations = BidProfile(tuple(Q(n - p[i]) for i in range(n)))
            yield initial, valuations, MbmConfig(n, m_bar)


def outcomes(suites=SUITES) -> dict:
    """{"suite n": [outcome per instance]} over the space, each outcome
    "holds", "violated" or the name of the error ``run_suite(suite,
    [instance], seed=7)`` raised."""
    out = {}
    for n in N_VALUES:
        instances = list(space(n))
        for suite in suites:
            found = out[f"{suite} {n}"] = []
            for instance in instances:
                try:
                    (report,) = run_suite(suite, [instance], seed=7)
                except MbmError as exc:
                    found.append(type(exc).__name__)
                else:
                    found.append("holds" if report.holds else "violated")
    return out


def counts(found: dict) -> dict:
    return {key: dict(Counter(results)) for key, results in found.items()}


def test_every_suite_gives_the_pinned_counts_and_classes_decide_as_patterns(monkeypatch):
    # the real engine never walks the grid here: a zero share raises at a
    # degenerate threshold class. sp and group-sp, walked again on every rank
    # pattern ranked and scored in full, hold or raise on the same instances
    def no_grid(others):
        raise AssertionError("the real engine walked the grid")

    monkeypatch.setattr(properties, "_grid", no_grid)
    with Timer(15, "bounded-exhaustive space: pinned counts, classes as patterns", 5) as t:
        found = outcomes()
        monkeypatch.setattr(properties, "_classes", pattern_walk)
        walked = outcomes(("sp", "group-sp"))
        ok = counts(found) == COUNTS and all(found[key] == walked[key] for key in walked)
        t.finish(ok, "826 instances, six suites, n = 3..5")


def _outcome(engine, instance):
    try:
        return engine(*instance)
    except MbmError as exc:  # compared by type and message
        return type(exc), str(exc)


def test_the_engine_equals_the_fraction_reference_on_the_space():
    # every field of both branches, or the same error, zero shares included
    seen = Counter()
    for n in N_VALUES:
        for instance in space(n):
            want = _outcome(fraction_run_expected, instance)
            got = _outcome(lambda *args: branch_fields(run_expected(*args)), instance)
            assert got == want, instance
            seen[want[0] if isinstance(want[0], type) else "settled"] += 1
    assert seen == {"settled": 665, DegenerateBuyerMass: 161}


def test_utilities_equal_the_fraction_reference_on_the_space():
    # core's utility readers, or the same error, at the bids and at values
    # moved a third off them, zero shares included
    seen = Counter()
    for n in N_VALUES:
        for initial, profile, config in space(n):
            moved = BidProfile(tuple(b + Q((-1) ** i, 3) for i, b in enumerate(profile.bids)))
            for values in (profile, moved):
                instance = (initial, profile, config, values)
                want = _outcome(fraction_utility_table, instance)
                assert _outcome(utility_table, instance) == want, instance
                seen[want[0] if isinstance(want[0], type) else "read"] += 1
    assert seen == {"read": 2 * 665, DegenerateBuyerMass: 2 * 161}


def test_welfare_report_equals_the_fraction_reference_on_the_space():
    # every field of the welfare report, or the same error, zero shares included
    seen = Counter()
    for n in N_VALUES:
        for instance in space(n):
            want = _outcome(fraction_welfare_report, instance)
            assert _outcome(report_fields, instance) == want, instance
            seen[want[0] if isinstance(want[0], type) else "reported"] += 1
    assert seen == {"reported": 665, DegenerateBuyerMass: 161}


def test_the_space_sees_the_degenerate_check_mutant(tmp_path, subprocess_env):
    # without its check, the class walk scores a class whose buyers hold
    # nothing: sp's and group-sp's counts move, and no other suite's
    script = "import json, test_exhaustive as x; print(json.dumps(x.counts(x.outcomes())))"
    package = tmp_path / "mbm"
    shutil.copytree(os.path.join(SRC, "mbm"), package)
    mutants.apply(package, mutants.DEGENERATE_MUTANT)
    env = dict(subprocess_env)
    tests = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), tests, env["PYTHONPATH"]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    moved = {key for key, tally in json.loads(proc.stdout).items() if tally != COUNTS[key]}
    assert moved == {f"{suite} {n}" for suite in ("sp", "group-sp") for n in N_VALUES}
