"""Command-line interface: run, verify, welfare.

Exit codes: 0 success, 1 property violation, 2 validation error,
3 degenerate instance (zero combined buyer share), 4 search budget
exceeded. MBM_SEED serves as a fallback wherever --seed is accepted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .captable import parse_captable, to_instance
from .errors import DegenerateBuyerMass, InvalidAlpha, MbmError, SearchBudgetExceeded
from .properties import (
    CORRUPTION_KINDS,
    check_budget_balance,
    check_individual_rationality,
    check_pp_expost_efficiency,
    corrupted_engine,
    run_expected,
)
from . import __version__
from .rational import BACKEND, decimal_approx, rational_str
from .report import build_run_report
from .suites import GROUP_SP_MAX_N, SUITES, generate_suite, run_suite
from .welfare import sweep_point, valid_alphas

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4


def _resolve_seed(value: int | None) -> int | None:
    if value is not None:
        return value
    env = os.environ.get("MBM_SEED")
    return int(env) if env else None


def _parse_range(text: str) -> tuple:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"expected A..B, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return (lo, hi)


def _parse_int_list(text: str) -> list:
    values = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = _parse_range(token)
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(token))
    return values


def _emit(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    with open(args.captable, "r", encoding="utf-8") as fh:
        records = parse_captable(fh, normalize=args.normalize)
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

    report = build_run_report(
        records,
        initial,
        profile,
        config,
        expected,
        mode=mode,
        seed=seed,
        captable_name=os.path.basename(args.captable),
        checks=checks,
    )
    rendered = {"json": report.to_json, "csv": report.to_csv, "text": report.to_text}[
        args.format
    ]()
    _emit(rendered, args.out)
    if any(not c.holds for c in checks):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if seed is None:
        seed = 0
    n_range = _parse_range(args.n_range)
    engine = run_expected
    if args.inject_defect:
        engine = corrupted_engine(args.inject_defect)

    instances = generate_suite(args.instances, seed=seed, n_range=n_range)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    verdicts = []
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
            verdicts.append(
                {
                    "suite": suite,
                    "property": report.name,
                    "instance": report.instance,
                    "holds": report.holds,
                    "cases": report.cases,
                    "witness": None if report.witness is None else report.witness.detail,
                }
            )
    _emit(json.dumps(verdicts, indent=2) + "\n", args.out)
    violations = sum(1 for v in verdicts if not v["holds"])
    if violations:
        print(f"{violations} violation(s) found", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_welfare(args) -> int:
    n_values = _parse_int_list(args.n_list)
    explicit_alphas = None if args.alpha_list == "all" else [
        token.strip() for token in args.alpha_list.split(",")
    ]

    rows = []
    for n in n_values:
        alphas = valid_alphas(n) if explicit_alphas is None else explicit_alphas
        for alpha in alphas:
            try:
                rows.append(sweep_point(n, alpha))
            except InvalidAlpha as exc:
                print(f"warning: skipping row: {exc}", file=sys.stderr)

    buf_rows = [
        [
            "n",
            "alpha",
            "sw_closed_form",
            "sw_engine",
            "preservation_ratio",
            "limit_gap",
            "sw_approx",
        ]
    ]
    for row in rows:
        buf_rows.append(
            [
                row.n,
                rational_str(row.alpha),
                rational_str(row.closed_form),
                rational_str(row.engine),
                rational_str(row.preservation_ratio),
                rational_str(row.limit_gap),
                decimal_approx(row.closed_form),
            ]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(buf_rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


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

    run = sub.add_parser("run", help="run the mechanism on a cap-table file")
    run.add_argument("--captable", required=True, help="CSV: agent_id,share,bid")
    run.add_argument("--mbar", required=True, type=int, help="threshold owner count")
    run.add_argument("--seed", type=int, default=None, help="realize one branch")
    run.add_argument(
        "--expected", action="store_true", help="report both branches and expectations"
    )
    run.add_argument(
        "--normalize", action="store_true", help="rescale shares to sum to 1"
    )
    run.add_argument(
        "--check", action="store_true", help="include property-check verdicts"
    )
    run.add_argument(
        "--format", choices=("json", "csv", "text"), default="text", dest="format"
    )
    run.add_argument("--out", default=None, help="output path (default stdout)")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run oracle suites on generated instances")
    verify.add_argument(
        "--suite", required=True, choices=SUITES + ("all",), help="which oracle suite"
    )
    verify.add_argument("--instances", type=int, default=100)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--n-range", default="3..6", help="agent count range A..B")
    verify.add_argument(
        "--budget",
        type=int,
        default=10**6,
        help="coalition search evaluation cap",
    )
    verify.add_argument(
        "--inject-defect", choices=CORRUPTION_KINDS, default=None, help=argparse.SUPPRESS
    )
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    welfare = sub.add_parser(
        "welfare", help="tabulate closed-form vs engine welfare as CSV"
    )
    welfare.add_argument(
        "--n-list", required=True, help="comma list of n values; A..B ranges allowed"
    )
    welfare.add_argument(
        "--alpha-list",
        required=True,
        help="comma list of retained-owner fractions, or 'all'",
    )
    welfare.add_argument("--out", default=None, help="CSV path (default stdout)")
    welfare.set_defaults(func=cmd_welfare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateBuyerMass as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SearchBudgetExceeded as exc:
        print(f"search budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MbmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
