"""Command-line interface: run, verify, welfare.

Exit codes: 0 success, 1 property violation (for welfare, a row where the
closed form and the engine differ), 2 validation error, 3 degenerate
instance (zero combined buyer share), 4 search budget exceeded, 70 internal
error (any other exception, reported on one stderr line: a fault, never a
verdict). MBM_SEED serves as a fallback wherever --seed is accepted.
Each command's options are one table, ``_COMMANDS``: a plain request (the
command, then whole flags of its table, each once, with their values) is
read straight off that table by ``_read``, and the full argparse tree built
from the same table parses everything else, so every help, version, usage
and error text comes from argparse.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from .captable import parse_captable, to_instance
from .core import run_expected
from .errors import (
    DegenerateBuyerMass,
    InvalidArgument,
    MbmError,
    ParseError,
    SearchBudgetExceeded,
)
from .properties import (
    CORRUPTION_KINDS,
    DEFAULT_SEARCH_BUDGET,
    check_budget_balance,
    check_individual_rationality,
    check_pp_expost_efficiency,
    corrupted_engine,
)
from . import __version__
from .rational import BACKEND, ratio_pair, ratio_str, rational
from .report import _verdicts_json, build_run_report
from .suites import GROUP_SP_MAX_N, SUITES, generate_suite, run_suite
from .welfare import welfare_sweep

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4
EXIT_SOFTWARE = 70


def _parse_int(text: str, source: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidArgument(f"{source}: {exc}") from exc


def _resolve_seed(value: int | None) -> int | None:
    if value is not None:
        return value
    env = os.environ.get("MBM_SEED")
    return _parse_int(env, "MBM_SEED") if env else None


def _parse_range(text: str, source: str) -> tuple:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InvalidArgument(f"{source}: expected A..B, got {text!r}")
    lo, hi = _parse_int(lo, source), _parse_int(hi, source)
    if lo > hi:
        raise InvalidArgument(f"{source}: empty range {text!r}")
    return (lo, hi)


def _parse_int_list(text: str, source: str) -> list:
    values = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = _parse_range(token, source)
            values.extend(range(lo, hi + 1))
        else:
            values.append(_parse_int(token, source))
    return values


def _emit(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    with open(args.captable, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc)) from exc
    records = parse_captable(text, normalize=args.normalize)
    initial, profile, config = to_instance(records, m_bar=args.mbar)
    seed = _resolve_seed(args.seed)
    mode = "realized" if (seed is not None and not args.expected) else "expected"
    expected = run_expected(initial, profile, config)

    checks = ()
    if args.check:
        engine = lambda *_: expected
        checks = (
            check_budget_balance(initial, profile, config, engine=engine),
            check_individual_rationality(initial, profile, config, engine=engine),
            check_pp_expost_efficiency(initial, profile, config, engine=engine),
        )

    name = os.path.basename(args.captable)
    report = build_run_report(
        records, initial, profile, config, expected, mode, seed, name, checks=checks
    )
    _emit(getattr(report, "to_" + args.format)(), args.out)
    if any(not c.holds for c in checks):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if seed is None:
        seed = 0
    n_range = _parse_range(args.n_range, "--n-range")
    engine = run_expected
    if args.inject_defect:
        engine = corrupted_engine(args.inject_defect)

    instances = generate_suite(args.instances, seed=seed, n_range=n_range)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    verdicts, violations = [], 0
    for suite in suites:
        group_max_n = GROUP_SP_MAX_N if args.suite == "all" else None
        reports = run_suite(
            suite,
            instances,
            seed=seed,
            engine=engine,
            budget=args.budget,
            group_max_n=group_max_n,
        )
        for report in reports:
            verdicts.append((suite, report))
            violations += not report.holds
    _emit(_verdicts_json(verdicts), args.out)
    if violations:
        print(f"{violations} violation(s) found", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_welfare(args) -> int:
    n_values = _parse_int_list(args.n_list, "--n-list")
    explicit_alphas = None
    if args.alpha_list != "all":
        try:
            explicit_alphas = [rational(token.strip()) for token in args.alpha_list.split(",")]
        except ValueError as exc:
            raise InvalidArgument(f"--alpha-list: {exc}") from exc

    rows, skipped = welfare_sweep(n_values, explicit_alphas)
    for exc in skipped:
        print(f"warning: skipping row: {exc}", file=sys.stderr)

    buf_rows = [["n", "alpha", "sw_closed_form", "sw_engine", "preservation_ratio", "limit_gap",
                 "sw_approx"]]
    differ = 0
    for row in rows:
        # each value's (p, q) off the row's integer form, no rational made
        alpha, closed, engine, ratio, gap = row._form
        closed_text, approx = ratio_pair(*closed)
        buf_rows.append(
            [row.n, ratio_str(*alpha), closed_text, ratio_str(*engine), ratio_str(*ratio),
             ratio_str(*gap), approx]
        )
        differ += closed[0] * engine[1] != engine[0] * closed[1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(buf_rows)
    _emit(buf.getvalue(), args.out)
    if differ:
        print(f"{differ} row(s) where the closed form differs from the engine", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# name -> (help line, handler, options); each option is (flag, the keyword
# arguments of its add_argument call)
_COMMANDS = {
    "run": ("run the mechanism on a cap-table file", cmd_run, (
        ("--captable", dict(required=True, help="CSV: agent_id,share,bid")),
        ("--mbar", dict(required=True, type=int, help="threshold owner count")),
        ("--seed", dict(type=int, default=None, help="realize one branch")),
        ("--expected", dict(action="store_true", help="report both branches and expectations")),
        ("--normalize", dict(action="store_true", help="rescale shares to sum to 1")),
        ("--check", dict(action="store_true", help="include property-check verdicts")),
        ("--format", dict(choices=("json", "csv", "text"), default="text")),
        ("--out", dict(default=None, help="output path (default stdout)")),
    )),
    "verify": ("run oracle suites on generated instances", cmd_verify, (
        ("--suite", dict(required=True, choices=SUITES + ("all",), help="which oracle suite")),
        ("--instances", dict(type=int, default=100)),
        ("--seed", dict(type=int, default=None)),
        ("--n-range", dict(default="3..6", help="agent count range A..B")),
        ("--budget", dict(
            type=int, default=DEFAULT_SEARCH_BUDGET, help="coalition search evaluation cap"
        )),
        ("--inject-defect", dict(choices=CORRUPTION_KINDS, default=None, help=argparse.SUPPRESS)),
        ("--out", dict(default=None)),
    )),
    "welfare": ("tabulate closed-form vs engine welfare as CSV", cmd_welfare, (
        ("--n-list", dict(required=True, help="comma list of n values; A..B ranges allowed")),
        ("--alpha-list", dict(
            required=True, help="comma list of retained-owner fractions, or 'all'"
        )),
        ("--out", dict(default=None, help="CSV path (default stdout)")),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbm",
        description=(
            "Run the Multi-BMBY share-restructuring mechanism on a cap table, "
            "verify its properties on generated instances, or tabulate welfare."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"mbm {__version__} ({BACKEND} rational backend)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=handler)
    return parser


def _read(argv: list) -> argparse.Namespace | None:
    """What the full tree parses ``argv`` to, read off the command's options
    when ``argv`` is plain: the command, then whole flags of its table, each
    once, each but a ``store_true`` one followed by a value that does not start
    with ``-``, converts and lies in its choices; every required flag given.
    Anything else (abbreviations, ``=`` forms, help, stray tokens) gives None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    table = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = table.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0], func=handler)
    for flag, kwargs in options:
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _parse_args(argv: list) -> argparse.Namespace:
    args = _read(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except DegenerateBuyerMass as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SearchBudgetExceeded as exc:
        print(f"search budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MbmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a crash must not read as a verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
