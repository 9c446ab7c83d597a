"""The kill matrix as one gate: every mutant and every negative control
against every ``mbm verify`` suite and ``mbm run --check``.

Each mutant of ``mutants.EVERY_MUTANT`` is applied to its own copy of the
package, and one child process reads the mutant's row off that copy with
``mutants.kill_row``; one more child each reads the unmutated tree's row
and each ``--inject-defect`` control's, two children at a time. A row
lists, per suite, the exit code and the violations among
``mutants.VERIFY``'s 20 instances, and for ``run`` the exit code and the
checks that fail on ``worked.csv``. The whole matrix must equal
``MATRIX``; a mutant that no suite kills must carry a reason in
``SURVIVORS``.
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import mutants
from conftest import SRC, Timer

from mbm.properties import CORRUPTION_KINDS

TESTS = os.path.dirname(os.path.abspath(__file__))
WORKED = os.path.join(TESTS, "data", "worked.csv")
HOLDS = {suite: [0, 0] for suite in ("budget", "ir", "sp", "group-sp", "monotone", "efficiency")}
RUN_HOLDS = {"run": [0, []]}

# each row's cells that differ from "every suite holds, run --check passes"
MATRIX = {
    "P(high) is the low branch's buyer mass": {"sp": [1, 20], "group-sp": [1, 20]},
    "_priced_ratios divides the buyer term by H": {"sp": [1, 20], "group-sp": [1, 20]},
    "the lone readout's scores price at rank m_bar - 1": {"sp": [1, 20], "group-sp": [1, 20]},
    "_priced_ratios scores the threshold agent as a buyer": {"sp": [1, 20], "group-sp": [1, 20]},
    "_utilities flips the sign of the money term": {
        "ir": [1, 20], "sp": [1, 20], "group-sp": [1, 20], "run": [1, ["individual-rationality"]],
    },
    "the prefix share masses lose their leading 0": {
        "budget": [1, 20], "sp": [1, 10], "group-sp": [1, 8], "run": [1, ["budget-balance"]],
    },
    "a seller's proceeds lose the buyer-mass factor": {
        "budget": [1, 20], "ir": [1, 19], "sp": [1, 20], "group-sp": [1, 20],
        "run": [1, ["budget-balance", "individual-rationality"]],
    },
    "the class walk's H leaves out the threshold agent's share": {
        "sp": [1, 19], "group-sp": [1, 7],
    },
    "the class walk leaves out its degenerate check": {},
    "the others' readout does not skip a mover at the read rank": {
        "sp": [1, 11], "group-sp": [1, 5], "monotone": [1, 20],
    },
    "the lone readout prices a buyer at rank m_bar + 1": {
        "sp": [1, 7], "group-sp": [1, 6], "monotone": [1, 20],
    },
    "unmutated": {},
    "--inject-defect payment": {"budget": [1, 20], "sp": [1, 5], "group-sp": [1, 1]},
    "--inject-defect shares": {"budget": [1, 20], "sp": [1, 7], "efficiency": [1, 20]},
    "--inject-defect scale-skew": {
        "ir": [1, 8], "sp": [1, 10], "group-sp": [1, 4], "efficiency": [1, 20],
    },
    "--inject-defect price-next": {"ir": [1, 20], "sp": [1, 20], "group-sp": [1, 20]},
    "--inject-defect price-dip": {
        "ir": [1, 20], "sp": [1, 8], "group-sp": [1, 13], "monotone": [1, 20],
    },
}

# mutants that no suite kills, each with the reason and what sees it instead
SURVIVORS = {
    "the class walk leaves out its degenerate check": (
        "only a zero share reaches the check and generate_suite draws none; "
        "test_exhaustive's space sees it"
    ),
}


def _row(path: str, kwargs: dict, env: dict) -> dict:
    """``mutants.kill_row(**kwargs)`` in a child process with ``path`` first on PYTHONPATH."""
    env = {**env, "PYTHONPATH": os.pathsep.join((path, TESTS, env["PYTHONPATH"]))}
    code = f"import json, mutants; print(json.dumps(mutants.kill_row(**{kwargs!r})))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_criterion_16_kill_matrix(tmp_path, subprocess_env):
    labels = [label for label, *_ in mutants.EVERY_MUTANT]
    assert len(set(labels)) == len(labels) == 11
    with Timer(16, "kill matrix: 11 mutants, 5 controls, 6 suites and run --check", 30) as t:
        # the controls first: their group-sp grid walks take about 3 s
        # each, nearly all of the matrix's time, two children at a time
        jobs = {f"--inject-defect {kind}": (SRC, {"defect": kind}) for kind in CORRUPTION_KINDS}
        jobs["unmutated"] = (SRC, {"captable": WORKED})
        for k, mutant in enumerate(mutants.EVERY_MUTANT):
            package = tmp_path / str(k) / "mbm"
            shutil.copytree(os.path.join(SRC, "mbm"), package)
            mutants.apply(package, mutant)
            jobs[mutant[0]] = (str(package.parent), {"captable": WORKED})
        with ThreadPoolExecutor(2) as pool:
            rows = pool.map(lambda job: _row(*job, subprocess_env), jobs.values())
            found = dict(zip(jobs, rows))
        pinned = {
            name: {**HOLDS, **({} if name.startswith("--") else RUN_HOLDS), **cells}
            for name, cells in MATRIX.items()
        }
        survivors = {
            label for label in labels if all(found[label][suite][1] == 0 for suite in HOLDS)
        }
        ok = found == pinned and survivors == SURVIVORS.keys()
        t.finish(ok, f"{len(found)} rows")
