"""Request schedules and output checks for the four benchmark workloads.

A workload is built as one *round* of CLI requests, split into *chunks*
of a few seconds each. The composition of a chunk (commands, sizes,
formats, modes) is fixed; the concrete inputs (verify seeds, cap-table
contents, request order) come from the workload seed, and no two requests
in a round share them. ``run.py`` repeats the round until the run's time
is up, so every run measures whole copies of the same mix, and runs with
different seeds measure the same amount of work. Throughput is taken per
chunk, so that a burst of host noise spoils one chunk, not the run.

Each request carries its own output check. A check re-derives what it can
from the printed text alone (exact ``p/q`` fields re-parsed with
``fractions``), so it never trusts the program's own bookkeeping.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

WORKLOADS = ("welfare-sweep", "oracle-suite", "coalition-search", "captable-run")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Request:
    """One ``mbm`` CLI invocation and what a correct answer looks like.

    ``units`` is the work the request completes when it passes (sweep
    rows, instance verdicts or cap-table runs). ``expect_rc`` is 0, or 1
    for a negative control. ``check`` takes the captured stdout and returns
    None when it is correct, otherwise a one-line reason.
    """

    label: str
    argv: tuple
    units: int
    expect_rc: int
    check: Callable[[str], str | None]


def build_round(workload: str, seed: int, size: str, work_dir: Path) -> list:
    """The chunks (lists of requests) of ``workload``'s round.

    Cap tables are written to ``work_dir``.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "welfare-sweep":
        chunks = _welfare_round(size)
    elif workload == "oracle-suite":
        chunks = [_oracle_chunk(rng, size) for _ in range(3 if size == "full" else 1)]
    elif workload == "coalition-search":
        chunks = [_coalition_chunk(rng, size) for _ in range(5 if size == "full" else 1)]
    elif workload == "captable-run":
        chunks = [_captable_round(rng, size, work_dir)]
    else:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    for chunk in chunks:
        rng.shuffle(chunk)
    return chunks


# --- welfare-sweep -----------------------------------------------------------
#
# One `mbm welfare` request per n over the contiguous range 4..103: the
# closed-form/engine cross-check at large n, where the buyout and welfare
# kernels do nearly all the work and the run_expected cache is bypassed.
# The range holds 100 values of n, so one round is enough for the 90th
# percentile. Chunk j takes every n = j (mod 4), so each chunk spans the
# whole range.

WELFARE_HEADER = [
    "n",
    "alpha",
    "sw_closed_form",
    "sw_engine",
    "preservation_ratio",
    "limit_gap",
    "sw_approx",
]


def _welfare_round(size: str) -> list:
    top, stride = (103, 4) if size == "full" else (12, 1)
    return [
        [
            Request(
                label=f"welfare n={n}",
                argv=("welfare", "--n-list", str(n), "--alpha-list", "all"),
                units=n - 2,
                expect_rc=0,
                check=partial(check_welfare, n),
            )
            for n in range(first, top + 1, stride)
        ]
        for first in range(4, 4 + stride)
    ]


def check_welfare(n: int, out: str) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != WELFARE_HEADER:
        return "missing or wrong CSV header"
    body = rows[1:]
    if len(body) != n - 2:
        return f"{len(body)} rows, expected n - 2 = {n - 2}"
    alphas = set()
    for row in body:
        if len(row) != len(WELFARE_HEADER) or row[0] != str(n):
            return f"malformed row {row!r}"
        if Fraction(row[2]) != Fraction(row[3]):
            return f"alpha={row[1]}: closed form {row[2]} != engine {row[3]}"
        alphas.add(Fraction(row[1]))
    if alphas != {Fraction(k, n) for k in range(2, n)}:
        return "alpha column is not {2/n, ..., (n-1)/n}"
    return None


# --- oracle-suite and coalition-search ---------------------------------------
#
# `mbm verify` requests. Each names its suite and pins n with a one-value
# --n-range, so the instance-size mix of a round is the same for every seed;
# the seed picks the instances. The negative controls inject a defect that
# the named suite catches, and must exit 1.

ORACLE_SUITES = ("budget", "ir", "sp", "monotone", "efficiency")
ORACLE_CONTROLS = (
    ("budget", "payment"),
    ("efficiency", "scale-skew"),
    ("monotone", "price-dip"),
    ("sp", "price-next"),
)


def _verify_request(
    rng: random.Random, suite: str, instances: int, n_range: str, defect: str | None = None
) -> Request:
    seed = rng.randrange(2**31)
    argv = (
        "verify",
        "--suite",
        suite,
        "--instances",
        str(instances),
        "--seed",
        str(seed),
        "--n-range",
        n_range,
    )
    if defect is not None:
        argv += ("--inject-defect", defect)
    label = f"verify {suite} n={n_range}" + (f" defect={defect}" if defect else "")
    return Request(
        label=label,
        argv=argv,
        units=instances,
        expect_rc=0 if defect is None else 1,
        check=partial(check_verdicts, suite, instances, defect is not None),
    )


def check_verdicts(suite: str, instances: int, control: bool, out: str) -> str | None:
    verdicts = json.loads(out)
    if len(verdicts) != instances:
        return f"{len(verdicts)} verdicts for {instances} instances"
    if any(v["suite"] != suite for v in verdicts):
        return f"verdict for a suite other than {suite}"
    violated = sum(1 for v in verdicts if not v["holds"])
    if control and violated == 0:
        return "injected defect not caught"
    if not control and violated:
        return f"{violated} verdict(s) violated on the real engine"
    return None


def _oracle_chunk(rng: random.Random, size: str) -> list:
    instances, sizes = (10, range(3, 9)) if size == "full" else (1, (3, 5))
    requests = [
        _verify_request(rng, suite, instances, f"{n}..{n}")
        for suite in ORACLE_SUITES
        for n in sizes
    ]
    requests += [
        _verify_request(rng, suite, instances, "3..8", defect)
        for suite, defect in ORACLE_CONTROLS
    ]
    return requests


def _coalition_chunk(rng: random.Random, size: str) -> list:
    # n=4 requests are 15% of the round: enough that the 90th percentile
    # falls inside them, few enough that a round runs in about 20 s
    n4, n3, controls = (3, 16, 1) if size == "full" else (0, 3, 1)
    requests = [_verify_request(rng, "group-sp", 1, "4..4") for _ in range(n4)]
    requests += [_verify_request(rng, "group-sp", 1, "3..3") for _ in range(n3)]
    requests += [
        _verify_request(rng, "group-sp", 1, "3..4", "price-next") for _ in range(controls)
    ]
    return requests


# --- captable-run --------------------------------------------------------------
#
# `mbm run` on generated cap tables in every output format, mode and
# numeral style. Decimal tables go through --normalize; fraction tables sum
# to exactly 1. The known-failing tables are valid exact inputs whose
# normalized shares have thousands of digits; report serialization refuses
# them today (exit 2), so they count as failed.

CAPTABLE_FORMATS = ("json", "csv", "text")
CAPTABLE_MODES = (("--expected",), ("--seed",), ("--expected", "--check"))
CAPTABLE_STYLES = ("decimal", "fraction")
KNOWN_FAILING_EXPONENT = 5000


def _captable_round(rng: random.Random, size: str, work_dir: Path) -> list:
    # Table sizes run geometrically from 3 to 300 rows, one size per
    # request, so that latencies spread evenly and no gap between size
    # classes sits at a percentile. The (style, format, mode) combinations
    # take turns along the sizes, so each sees small and large tables.
    count, largest = (90, 300) if size == "full" else (18, 12)
    combos = list(itertools.product(CAPTABLE_STYLES, CAPTABLE_FORMATS, CAPTABLE_MODES))
    requests = []
    for i in range(count):
        n = round(3 * (largest / 3) ** (i / (count - 1)))
        style, fmt, mode = combos[i % len(combos)]
        # --check's pair loop is quadratic in the owner count m_bar: fix it
        # at a quarter, half or three quarters of n, by format, so that the
        # seed does not set the cost
        m_bar = min(max(2, n * (1 + CAPTABLE_FORMATS.index(fmt)) // 4), n - 1)
        rows = _decimal_rows(rng, n) if style == "decimal" else _fraction_rows(rng, n)
        path = _write_table(work_dir, len(requests), rows)
        argv = ["run", "--captable", str(path), "--mbar", str(m_bar), "--format", fmt]
        if style == "decimal":
            argv.append("--normalize")
        for flag in mode:
            argv.append(flag)
            if flag == "--seed":
                argv.append(str(rng.randrange(2**31)))
        requests.append(
            Request(
                label=f"run n={n} {style} {fmt} {' '.join(mode)}",
                argv=tuple(argv),
                units=1,
                expect_rc=0,
                check=partial(check_run, fmt, n, m_bar, "--check" in mode),
            )
        )
    for fmt in CAPTABLE_FORMATS:
        rows = _decimal_rows(rng, 3)
        rows[0] = (rows[0][0], f"1e-{KNOWN_FAILING_EXPONENT}", rows[0][2])
        path = _write_table(work_dir, len(requests), rows)
        argv = ("run", "--captable", str(path), "--mbar", "2", "--format", fmt, "--normalize", "--expected")
        requests.append(
            Request(
                label=f"run tiny-share {fmt}",
                argv=argv,
                units=1,
                expect_rc=0,
                check=partial(check_run, fmt, 3, 2, False),
            )
        )
    return requests


def _distinct(n: int, draw) -> list:
    values, seen = [], set()
    while len(values) < n:
        text = draw()
        if Fraction(text) not in seen:
            seen.add(Fraction(text))
            values.append(text)
    return values


def _decimal_rows(rng: random.Random, n: int) -> list:
    shares = [f"0.{rng.randint(1, 99999):05d}" for _ in range(n)]
    bids = _distinct(n, lambda: f"{rng.randint(1, 9999)}.{rng.randint(0, 999):03d}")
    return [(f"s{i}", shares[i], bids[i]) for i in range(n)]


def _fraction_rows(rng: random.Random, n: int) -> list:
    weights = [rng.randint(1, 10**6) for _ in range(n)]
    total = sum(weights)
    # bid denominators come from a small set, so their lcm -- and with it
    # the size of every sum the engine forms -- does not depend on the seed
    bids = _distinct(n, lambda: f"{rng.randint(1, 10**6)}/{rng.randint(1, 8)}")
    return [(f"s{i}", f"{w}/{total}", bids[i]) for i, w in enumerate(weights)]


def _write_table(work_dir: Path, index: int, rows: list) -> Path:
    path = work_dir / f"captable-{index:03d}.csv"
    lines = ["agent_id,share,bid"] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


_TEXT_AGENT = re.compile(
    r"^  (\S+) \(rank (\d+), bid \S+\): share \S+ -> (\S+), payment (\S+), utility \S+$"
)


def _branches_json(out: str):
    report = json.loads(out)
    branches = [
        [(a["agent_id"], a["rank"], a["final_share"], a["payment"]) for a in b["agents"]]
        for b in report["branches"]
    ]
    checks = [c["holds"] for c in report.get("checks", [])]
    return branches, report["expected_adjusted_utility"], checks


def _branches_csv(out: str):
    body = [line for line in out.splitlines() if not line.startswith("#")]
    grouped: dict = {}
    utilities = {}
    for row in csv.DictReader(body):
        grouped.setdefault(row["branch"], []).append(
            (row["agent_id"], int(row["rank"]), row["final_share"], row["payment"])
        )
        utilities[row["agent_id"]] = row["expected_adjusted_utility"]
    return list(grouped.values()), utilities, None


def _branches_text(out: str):
    branches, utilities, checks = [], {}, []
    for line in out.splitlines():
        if line.startswith("branch "):
            branches.append([])
        elif line.startswith("  "):
            match = _TEXT_AGENT.match(line)
            if match is None:
                raise ValueError(f"unparsed agent line {line!r}")
            agent_id, rank, share, payment = match.groups()
            branches[-1].append((agent_id, int(rank), share, payment))
        elif line.startswith("expected adjusted utility: "):
            for item in line.split(": ", 1)[1].split(", "):
                agent_id, value = item.split("=")
                utilities[agent_id] = value
        elif line.startswith("check "):
            checks.append(line.split(": ", 1)[1].startswith("holds"))
    return branches, utilities, checks


_PARSERS = {"json": _branches_json, "csv": _branches_csv, "text": _branches_text}


def check_run(fmt: str, n: int, m_bar: int, with_checks: bool, out: str) -> str | None:
    """Exact accounting checks on one `mbm run` report.

    In every branch shown, payments sum to 0 and final shares to 1; the
    agent ranked m_bar has expected adjusted utility exactly 0; every
    property check the format prints holds.
    """
    branches, utilities, checks = _PARSERS[fmt](out)
    if not branches:
        return "no branch in report"
    for agents in branches:
        if len(agents) != n:
            return f"branch lists {len(agents)} agents, expected {n}"
        if sum(Fraction(a[3]) for a in agents) != 0:
            return "payments do not sum to 0"
        if sum(Fraction(a[2]) for a in agents) != 1:
            return "final shares do not sum to 1"
    if len(utilities) != n:
        return f"{len(utilities)} expected utilities, expected {n}"
    threshold = [a[0] for a in branches[0] if a[1] == m_bar]
    if len(threshold) != 1 or Fraction(utilities[threshold[0]]) != 0:
        return "threshold agent's expected utility is not 0"
    if checks is not None and with_checks and (len(checks) != 3 or not all(checks)):
        return f"property checks {checks} do not all hold"
    return None
