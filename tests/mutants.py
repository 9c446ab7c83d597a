"""One-line mutants that a named ``mbm verify`` suite must kill.

``MUTANTS`` maps a suite to its mutants, each (label, file under
``src/mbm``, old text, new text); ``old``, one line (two for the degenerate
one, whose check line recurs), occurs exactly once in its file. Before the
deviation search tied its scorer to ``run_expected``, the first three
engine mutants passed every ``mbm verify`` suite: each changes the engine
and the real engine's truthful scores (``core._priced_ratios`` off one
agent's ``core._lone`` readout) apart, and both sp and group-sp must kill
them; the third prices those scores at the fixed bids' rank m_bar - 1.
The fourth scores the threshold agent as a buyer, which shows only where
her value differs from her bid, so the tie reads the type agents again
with every value moved off its bid. The fifth breaks ``core._utilities``,
the reader that gives the tie its engine side. The monotone one makes
``core._lone``, the one readout of the three agent types, price a buyer
at the others' m_bar-th bid, rank m_bar + 1: monotone must catch it on
every instance, through the tie to ``run_expected`` at every agent's own
bid or where the price falls, and sp and group-sp see it where a truthful
score reads a buyer. The budget one shifts the prefix share masses (``core._masses``)
by one rank; the engine, the scorer and the readout all read them, so
only the conservation check and the welfare sweep's closed form can tell.
The settlement one pays each seller a_i p / (d H q) instead of
a_i p / (d q) in ``core._settle``, which only the conservation check reads
in full. The class one leaves the threshold agent's share out of H in
``properties._classes`` only: the tie cannot see it, and sp and group-sp
must catch it inside the class walk, though not on every instance. The
degenerate one drops the class walk's ``DegenerateBuyerMass`` check: only
zero shares reach it, so ``mbm verify`` cannot, and the bounded-exhaustive
space in ``tests/test_exhaustive.py`` must see its counts move. The
readout one stops ``core._above`` from skipping a mover at the read rank,
so a member's own bid can price her class; the class walk reads it, and
sp must catch it. (Leaving a mover's share in L instead only lowers buyer
scores, which a search for strict gains cannot see; the reference tests
of ``_above`` and of the readout paths catch that one.)

``kill_row`` reads one row of the kill matrix that ``tests/test_kill_matrix.py``
pins for every mutant in ``EVERY_MUTANT`` and every negative control.
"""

import contextlib
import io
import json

from mbm.cli import main
from mbm.suites import SUITES

ENGINE_MUTANTS = (
    (
        "P(high) is the low branch's buyer mass",
        "core.py",
        "    return (m_bar, high, high), (m_bar - 1, low, d - high)",
        "    return (m_bar, high, low), (m_bar - 1, low, d - low)",
    ),
    (
        "_priced_ratios divides the buyer term by H",
        "core.py",
        "            out.append((a[j] * rest * (values[j] - u), low))",
        "            out.append((a[j] * rest * (values[j] - u), high))",
    ),
    (
        "the lone readout's scores price at rank m_bar - 1",
        "properties.py",
        "            return partial(_priced_ratios, a, d, u, high, low)",
        "            return partial(_priced_ratios, a, d, bids[order[m_bar - 2]], high, low)",
    ),
    (
        "_priced_ratios scores the threshold agent as a buyer",
        "core.py",
        "        if w[j] > u:",
        "        if w[j] >= u:",
    ),
    (
        "_utilities flips the sign of the money term",
        "core.py",
        "            term = ((s * d - a[j] * t) * v * z * c + (y * c - x[j] * z) * de * t) * p",
        "            term = ((s * d - a[j] * t) * v * z * c + (x[j] * z - y * c) * de * t) * p",
    ),
)

MASS_MUTANT = (
    "the prefix share masses lose their leading 0",
    "core.py",
    "    return list(accumulate(map(a.__getitem__, order), initial=0))",
    "    return list(accumulate(map(a.__getitem__, order)))",
)

SETTLEMENT_MUTANT = (
    "a seller's proceeds lose the buyer-mass factor",
    "core.py",
    "            y[i] = a[i] * buyers * p",
    "            y[i] = a[i] * p",
)

CLASS_MUTANT = (
    "the class walk's H leaves out the threshold agent's share",
    "properties.py",
    "            high = low + a[t]",
    "            high = low",
)

DEGENERATE_MUTANT = (
    "the class walk leaves out its degenerate check",
    "properties.py",
    "            high = low + a[t]\n            _branches({m_bar: high, m_bar - 1: low}, d, m_bar)",
    "            high = low + a[t]\n            pass",
)

ABOVE_MUTANT = (
    "the others' readout does not skip a mover at the read rank",
    "core.py",
    "        if p > i:",
    "        if p >= i:",
)

MUTANTS = {
    "budget": (MASS_MUTANT, SETTLEMENT_MUTANT),
    "sp": ENGINE_MUTANTS,
    "group-sp": ENGINE_MUTANTS,
    "monotone": (
        (
            "the lone readout prices a buyer at rank m_bar + 1",
            "core.py",
            "        return k * w[t1], low2 + a[j], low1 + a[j]",
            "        return k * w[t2], low2 + a[j], low1 + a[j]",
        ),
    ),
}


EVERY_MUTANT = (
    *ENGINE_MUTANTS,
    MASS_MUTANT,
    SETTLEMENT_MUTANT,
    CLASS_MUTANT,
    DEGENERATE_MUTANT,
    ABOVE_MUTANT,
    *MUTANTS["monotone"],
)


def apply(package_dir, mutant) -> None:
    """Rewrite the mutant's file in ``package_dir`` (a copy of ``src/mbm``)."""
    _, name, old, new = mutant
    path = package_dir / name
    text = path.read_text(encoding="utf-8")
    assert text.count(old + "\n") == 1, mutant
    path.write_text(text.replace(old + "\n", new + "\n"), encoding="utf-8")


VERIFY = ("verify", "--instances", "20", "--seed", "7", "--n-range", "3..4")


def kill_row(captable=None, defect=None) -> dict:
    """One row of the kill matrix, run in this interpreter on the ``mbm`` it imports.

    Per suite, ``verify --suite S`` on ``VERIFY``'s instances, with
    ``--inject-defect defect`` when given: [exit code, violations]. With a
    ``captable``, "run" is ``run --expected --check --format json`` on it at
    m_bar 2: [exit code, the checks that fail]. Anything but a verdict
    (exit 0 or 1) keeps its exit code and None.
    """

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, (json.loads(out.getvalue()) if code in (0, 1) else None)

    row = {}
    for suite in SUITES:
        argv = [*VERIFY, "--suite", suite] + (["--inject-defect", defect] if defect else [])
        code, verdicts = call(argv)
        row[suite] = [code, None if verdicts is None else sum(not v["holds"] for v in verdicts)]
    if captable is not None:
        code, report = call(["run", "--captable", captable, "--mbar", "2", "--expected",
                             "--check", "--format", "json"])
        failed = None if report is None else [c["property"] for c in report["checks"]
                                              if not c["holds"]]
        row["run"] = [code, failed]
    return row
