"""Run reports and their deterministic serialization.

A report holds the instance and the engine's ``ExpectedOutcome`` and renders
json, csv and text straight from the outcomes it shows, each per-agent value
off integer forms with one gcd (``ratio_str``, ``ratio_pair``) and each bid
and initial share once per report. Reports serialize with a stable field
order and rationals in lossless "p/q" text, each paired with a clearly-labeled
20-digit decimal approximation for human readers. Identical inputs produce
byte-identical output, which golden-file tests rely on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape

from .core import (
    Allocation,
    BidProfile,
    ExpectedOutcome,
    MbmConfig,
    MechanismOutcome,
    _bid_numerators,
    _branches,
    _holdings,
    _masses,
    _priced_ratios,
    _utilities,
    draw_branch,
)
from .rational import as_ratio, decimal_approx, ratio_pair, ratio_str, rational_str
from .welfare import WelfareReport, _welfare_report


@dataclass(frozen=True)
class RunReport:
    """One mechanism run: the instance, the engine's outcome and the branches shown.

    The renderers read the prices, probabilities and final allocations off
    ``expected`` and ``branches`` (both ``ExpectedOutcome`` branches, or the
    one drawn in realized mode); nothing is copied out of them first.
    ``utilities`` holds each shown branch's adjusted utilities and
    ``expected_utilities`` the scorer's expected ones, at face value as (p, q).
    """

    captable: str
    agent_ids: tuple
    initial: Allocation
    profile: BidProfile
    config: MbmConfig
    expected: ExpectedOutcome
    mode: str
    seed: int | None
    branches: tuple
    utilities: tuple
    expected_utilities: tuple
    welfare: WelfareReport
    checks: tuple = ()

    def _label(self, outcome: MechanismOutcome) -> str:
        return "high" if outcome.realized_m == self.config.m_bar else "low"

    def _shown(self, render):
        """Per branch shown: the outcome and its rows, per agent in table order:
        id, rank, bid, initial share, final share, payment and adjusted utility.
        Bids and initial shares go through ``render`` once per report, the rest are (p, q)."""
        a, d, x, c = _holdings(self.initial)
        w, e = _bid_numerators(self.profile)
        fixed = [(render(w[i], e), render(a[i], d)) for i in range(self.config.n)]
        for outcome, utilities in zip(self.branches, self.utilities):
            rank_of = {agent: rank for rank, agent in enumerate(outcome.order, 1)}
            s, t, y, z = _holdings(outcome.final_allocation)
            payments = [(yi, z) for yi in y]
            if any(x):
                payments = [(yi * c - xi * z, z * c) for xi, yi in zip(x, y)]
            yield outcome, [
                (agent_id, rank_of[agent], *fixed[agent], (s[agent], t), payments[agent],
                 utilities[agent])
                for agent, agent_id in enumerate(self.agent_ids)
            ]

    def to_dict(self) -> dict:
        high, low = self.expected.branches
        out: dict = {
            "captable": self.captable,
            "n": self.config.n,
            "m_bar": self.config.m_bar,
            "mode": self.mode,
            "seed": self.seed,
            "agents": list(self.agent_ids),
            "ranking": [self.agent_ids[a] for a in high.order],
        }
        _put(out, "price", _pair(high.price))
        _put(out, "p_high", _pair(high.branch_probability))
        _put(out, "p_low", _pair(low.branch_probability))
        out["branches"] = []
        for outcome, rows in self._shown(ratio_pair):
            b: dict = {"branch": self._label(outcome), "owner_count": outcome.realized_m}
            _put(b, "probability", _pair(outcome.branch_probability))
            b["agents"] = []
            for agent_id, rank, bid, share, final, payment, utility in rows:
                a: dict = {"agent_id": agent_id, "rank": rank}
                _put(a, "bid", bid)
                _put(a, "initial_share", share)
                _put(a, "final_share", ratio_pair(*final))
                _put(a, "payment", ratio_pair(*payment))
                _put(a, "adjusted_utility", ratio_pair(*utility))
                b["agents"].append(a)
            out["branches"].append(b)
        eus = (ratio_str(*u) for u in self.expected_utilities)
        out["expected_adjusted_utility"] = dict(zip(self.agent_ids, eus))
        w: dict = {}
        _put(w, "initial", _pair(self.welfare.initial_welfare))
        _put(w, "expected", _pair(self.welfare.expected_mbm_welfare))
        _put(w, "first_best", _pair(self.welfare.first_best))
        _put(w, "preservation_ratio", _pair(self.welfare.preservation_ratio))
        out["welfare"] = w
        if self.checks:
            out["checks"] = [
                {"property": c.name, "holds": c.holds, "cases": c.cases,
                 "witness": None if c.witness is None else c.witness.detail}
                for c in self.checks
            ]
        return out

    def to_json(self) -> str:
        return dumps_indented(self.to_dict()) + "\n"

    def to_csv(self) -> str:
        high, low = self.expected.branches
        buf = io.StringIO()
        w = self.welfare
        buf.write(
            f"# captable={self.captable} n={self.config.n} m_bar={self.config.m_bar} "
            f"mode={self.mode} seed={self.seed}\n"
            f"# price={rational_str(high.price)} "
            f"p_high={rational_str(high.branch_probability)} "
            f"p_low={rational_str(low.branch_probability)}\n"
            f"# welfare_initial={rational_str(w.initial_welfare)} "
            f"welfare_expected={rational_str(w.expected_mbm_welfare)} "
            f"first_best={rational_str(w.first_best)} "
            f"preservation_ratio={rational_str(w.preservation_ratio)}\n"
        )
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        eus = [ratio_str(*u) for u in self.expected_utilities]
        for outcome, rows in self._shown(ratio_str):
            probability = rational_str(outcome.branch_probability)
            head = [self._label(outcome), outcome.realized_m, probability]
            for (agent_id, rank, bid, share, final, payment, utility), eu in zip(rows, eus):
                writer.writerow([
                    *head, agent_id, rank, bid, share, *ratio_pair(*final),
                    *ratio_pair(*payment), ratio_str(*utility), eu,
                ])
        return buf.getvalue()

    def to_text(self) -> str:
        high, low = self.expected.branches
        m_bar = self.config.m_bar
        lines = [
            f"captable: {self.captable}",
            f"agents: n={self.config.n}, m_bar={m_bar}, mode={self.mode}"
            + (f", seed={self.seed}" if self.seed is not None else ""),
            "ranking: " + " > ".join(self.agent_ids[a] for a in high.order),
            f"price: {rational_str(high.price)}",
            f"P[m={m_bar}] = {rational_str(high.branch_probability)}, "
            f"P[m={m_bar - 1}] = {rational_str(low.branch_probability)}",
        ]
        for outcome, rows in self._shown(ratio_str):
            lines.append(
                f"branch {self._label(outcome)}: m={outcome.realized_m}, "
                f"probability {rational_str(outcome.branch_probability)}"
            )
            for agent_id, rank, bid, share, final, payment, utility in rows:
                lines.append(
                    f"  {agent_id} (rank {rank}, bid {bid}): "
                    f"share {share} -> {ratio_str(*final)}, "
                    f"payment {ratio_str(*payment)}, "
                    f"utility {ratio_str(*utility)}"
                )
        eu = ", ".join(
            f"{agent_id}={ratio_str(*u)}"
            for agent_id, u in zip(self.agent_ids, self.expected_utilities)
        )
        lines.append(f"expected adjusted utility: {eu}")
        w = self.welfare
        lines.append(
            f"welfare: initial {rational_str(w.initial_welfare)}, "
            f"expected {rational_str(w.expected_mbm_welfare)} "
            f"(~{decimal_approx(w.expected_mbm_welfare, 6)}), "
            f"first-best {rational_str(w.first_best)}, "
            f"preserved {rational_str(w.preservation_ratio)}"
        )
        for c in self.checks:
            verdict = "holds" if c.holds else f"VIOLATED ({c.witness.detail})"
            lines.append(f"check {c.name}: {verdict} [{c.cases} cases]")
        return "\n".join(lines) + "\n"


_CSV_HEADER = (
    "branch", "owner_count", "probability", "agent_id", "rank", "bid",
    "initial_share", "final_share", "final_share_approx", "payment",
    "payment_approx", "adjusted_utility", "expected_adjusted_utility",
)


def _pair(value) -> tuple:
    return ratio_pair(*as_ratio(value))


def _put(out: dict, key: str, pair: tuple) -> None:
    out[key], out[key + "_approx"] = pair


def dumps_indented(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without the pure-Python
    encoder that any ``indent`` selects.

    Strings and keys go through the C escaper, ints through ``int.__repr__``
    as in ``json``, other scalars through ``json.dumps``; tuples are lists.
    """
    out: list = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    if isinstance(value, str):
        out.append(_escape(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _escape(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def build_run_report(
    records,
    initial: Allocation,
    profile: BidProfile,
    config: MbmConfig,
    expected: ExpectedOutcome,
    mode: str,
    seed: int | None,
    captable_name: str,
    checks=(),
) -> RunReport:
    """A RunReport over the instance's ``run_expected`` outcome.

    In realized mode the branch shown is drawn from ``expected`` with ``seed``;
    in expected mode both branches are shown and the seed is dropped.
    Utilities are taken at face value (bid = value): each shown branch's read
    off it by ``core._utilities``, the expected ones by ``core._priced_ratios``
    at the bid ranked m_bar with ``core._branches``' buyer masses, as integer
    ratios over d * e. Those masses and the welfare are read off one
    ``_masses`` of the outcome's bid order, with no second ranking.
    """
    realized = mode == "realized"
    shown = (draw_branch(expected, seed),) if realized else expected.branches
    holdings = _holdings(initial)
    a, d = holdings[:2]
    v, e = _bid_numerators(profile)
    de, agents, m_bar = d * e, range(config.n), config.m_bar
    order = expected.high_branch.order
    mass = _masses(order, a)
    (_, high, _), (_, low, _) = _branches(mass, d, m_bar)

    def read(ratios) -> tuple:
        return tuple((num, de * den) for num, den in ratios)

    return RunReport(
        captable=captable_name,
        agent_ids=tuple(r.agent_id for r in records),
        initial=initial,
        profile=profile,
        config=config,
        expected=expected,
        mode=mode,
        seed=seed if realized else None,
        branches=shown,
        utilities=tuple(
            read(_utilities(holdings, ((1, 1, b.final_allocation),), agents, v, e)) for b in shown
        ),
        expected_utilities=read(_priced_ratios(a, d, v[order[m_bar - 1]], high, low, v, v, agents)),
        welfare=_welfare_report((order, mass, a, d, v, e), m_bar),
        checks=tuple(checks),
    )
