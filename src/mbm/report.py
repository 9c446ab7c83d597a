"""Run reports and their deterministic serialization.

Reports serialize with a stable field order and rationals in lossless
"p/q" text, each paired with a clearly-labeled 20-digit decimal
approximation for human readers. Identical inputs produce byte-identical
output, which golden-file tests rely on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .core import (
    Allocation,
    BidProfile,
    ExpectedOutcome,
    MbmConfig,
    adjusted_utility,
    draw_branch,
    expected_adjusted_utilities,
)
from .rational import decimal_approx, rational_str
from .welfare import WelfareReport, welfare_report

APPROX_DIGITS = 20


@dataclass(frozen=True)
class AgentBranchLine:
    agent_id: str
    rank: int
    bid: object
    initial_share: object
    final_share: object
    payment: object
    adjusted_utility: object


@dataclass(frozen=True)
class BranchSection:
    label: str
    owner_count: int
    probability: object
    agents: tuple


@dataclass(frozen=True)
class RunReport:
    """Everything one mechanism run reports; field order is the wire order."""

    captable: str
    n: int
    m_bar: int
    mode: str
    seed: int | None
    agent_ids: tuple
    ranking_ids: tuple
    price: object
    p_high: object
    p_low: object
    branches: tuple
    expected_utilities: tuple
    welfare: WelfareReport
    checks: tuple = ()

    def to_dict(self) -> dict:
        out: dict = {
            "captable": self.captable,
            "n": self.n,
            "m_bar": self.m_bar,
            "mode": self.mode,
            "seed": self.seed,
            "agents": list(self.agent_ids),
            "ranking": list(self.ranking_ids),
        }
        _put(out, "price", self.price)
        _put(out, "p_high", self.p_high)
        _put(out, "p_low", self.p_low)
        out["branches"] = []
        for branch in self.branches:
            b: dict = {
                "branch": branch.label,
                "owner_count": branch.owner_count,
            }
            _put(b, "probability", branch.probability)
            b["agents"] = []
            for line in branch.agents:
                a: dict = {"agent_id": line.agent_id, "rank": line.rank}
                _put(a, "bid", line.bid)
                _put(a, "initial_share", line.initial_share)
                _put(a, "final_share", line.final_share)
                _put(a, "payment", line.payment)
                _put(a, "adjusted_utility", line.adjusted_utility)
                b["agents"].append(a)
            out["branches"].append(b)
        eu: dict = {}
        for agent_id, value in zip(self.agent_ids, self.expected_utilities):
            eu[agent_id] = rational_str(value)
        out["expected_adjusted_utility"] = eu
        w: dict = {}
        _put(w, "initial", self.welfare.initial_welfare)
        _put(w, "expected", self.welfare.expected_mbm_welfare)
        _put(w, "first_best", self.welfare.first_best)
        _put(w, "preservation_ratio", self.welfare.preservation_ratio)
        out["welfare"] = w
        if self.checks:
            out["checks"] = [
                {
                    "property": c.name,
                    "holds": c.holds,
                    "cases": c.cases,
                    "witness": None if c.witness is None else c.witness.detail,
                }
                for c in self.checks
            ]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(
            f"# captable={self.captable} n={self.n} m_bar={self.m_bar} "
            f"mode={self.mode} seed={self.seed}\n"
        )
        buf.write(
            f"# price={rational_str(self.price)} p_high={rational_str(self.p_high)} "
            f"p_low={rational_str(self.p_low)}\n"
        )
        w = self.welfare
        buf.write(
            f"# welfare_initial={rational_str(w.initial_welfare)} "
            f"welfare_expected={rational_str(w.expected_mbm_welfare)} "
            f"first_best={rational_str(w.first_best)} "
            f"preservation_ratio={rational_str(w.preservation_ratio)}\n"
        )
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "branch",
                "owner_count",
                "probability",
                "agent_id",
                "rank",
                "bid",
                "initial_share",
                "final_share",
                "final_share_approx",
                "payment",
                "payment_approx",
                "adjusted_utility",
                "expected_adjusted_utility",
            ]
        )
        eu_by_id = dict(zip(self.agent_ids, self.expected_utilities))
        for branch in self.branches:
            for line in branch.agents:
                writer.writerow(
                    [
                        branch.label,
                        branch.owner_count,
                        rational_str(branch.probability),
                        line.agent_id,
                        line.rank,
                        rational_str(line.bid),
                        rational_str(line.initial_share),
                        rational_str(line.final_share),
                        decimal_approx(line.final_share, APPROX_DIGITS),
                        rational_str(line.payment),
                        decimal_approx(line.payment, APPROX_DIGITS),
                        rational_str(line.adjusted_utility),
                        rational_str(eu_by_id[line.agent_id]),
                    ]
                )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [
            f"captable: {self.captable}",
            f"agents: n={self.n}, m_bar={self.m_bar}, mode={self.mode}"
            + (f", seed={self.seed}" if self.seed is not None else ""),
            "ranking: " + " > ".join(self.ranking_ids),
            f"price: {rational_str(self.price)}",
            f"P[m={self.m_bar}] = {rational_str(self.p_high)}, "
            f"P[m={self.m_bar - 1}] = {rational_str(self.p_low)}",
        ]
        for branch in self.branches:
            lines.append(
                f"branch {branch.label}: m={branch.owner_count}, "
                f"probability {rational_str(branch.probability)}"
            )
            for a in branch.agents:
                lines.append(
                    f"  {a.agent_id} (rank {a.rank}, bid {rational_str(a.bid)}): "
                    f"share {rational_str(a.initial_share)} -> {rational_str(a.final_share)}, "
                    f"payment {rational_str(a.payment)}, "
                    f"utility {rational_str(a.adjusted_utility)}"
                )
        eu = ", ".join(
            f"{agent_id}={rational_str(v)}"
            for agent_id, v in zip(self.agent_ids, self.expected_utilities)
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


def _put(out: dict, key: str, value) -> None:
    out[key] = rational_str(value)
    out[key + "_approx"] = decimal_approx(value, APPROX_DIGITS)


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
    """Assemble a RunReport from the instance's ``run_expected`` outcome.

    In realized mode the branch is drawn from ``expected`` with ``seed``.
    Utilities are taken at face value (bid = value).
    """
    order = expected.high_branch.order
    rank_of = {agent: rank for rank, agent in enumerate(order, 1)}
    agent_ids = tuple(r.agent_id for r in records)

    if mode == "realized":
        outcomes = (draw_branch(expected, seed),)
    else:
        outcomes = expected.branches

    sections = []
    for outcome in outcomes:
        label = "high" if outcome.realized_m == config.m_bar else "low"
        agents = []
        for agent in range(config.n):
            final = outcome.final_allocation
            agents.append(
                AgentBranchLine(
                    agent_id=agent_ids[agent],
                    rank=rank_of[agent],
                    bid=profile.bids[agent],
                    initial_share=initial.shares[agent],
                    final_share=final.shares[agent],
                    payment=final.money[agent] - initial.money[agent],
                    adjusted_utility=adjusted_utility(initial, outcome, profile, agent),
                )
            )
        sections.append(
            BranchSection(
                label=label,
                owner_count=outcome.realized_m,
                probability=outcome.branch_probability,
                agents=tuple(agents),
            )
        )

    return RunReport(
        captable=captable_name,
        n=config.n,
        m_bar=config.m_bar,
        mode=mode,
        seed=seed if mode == "realized" else None,
        agent_ids=agent_ids,
        ranking_ids=tuple(agent_ids[a] for a in order),
        price=expected.high_branch.price,
        p_high=expected.high_branch.branch_probability,
        p_low=expected.low_branch.branch_probability,
        branches=tuple(sections),
        expected_utilities=expected_adjusted_utilities(initial, profile, config, profile),
        welfare=welfare_report(initial, profile, config),
        checks=tuple(checks),
    )
