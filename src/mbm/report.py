"""Run reports and their deterministic serialization.

A report holds the instance and the engine's ``ExpectedOutcome`` and renders
json, csv and text straight from the outcomes it shows, each per-agent value
off integer forms with one gcd (``ratio_str``, ``ratio_pair``) and each bid
and initial share once per report. Reports serialize with a stable field
order and rationals in lossless "p/q" text, each paired with a clearly-labeled
20-digit decimal approximation for human readers. Identical inputs produce
byte-identical output, which golden-file tests rely on.

Both json outputs, the run report's and ``mbm verify``'s verdict list, are
written straight from the values they print into fixed-key templates with
``json.dumps(..., indent=2)``'s layout, byte for byte: no dict is built
first and no value's type is looked up. The csv is one template per agent row,
as ``csv.writer`` writes it: only an id that csv may quote goes through it.
"""

from __future__ import annotations

import csv
import io
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

    def to_json(self) -> str:
        """``json.dumps(indent=2)`` of the report, byte for byte, written straight
        from ``_shown``'s rows into the fixed-key templates below."""
        high, low = self.expected.branches
        ids = [_escape(agent_id) for agent_id in self.agent_ids]
        branches = []
        for outcome, rows in self._shown(ratio_pair):
            agents = [
                _AGENT % (_escape(agent_id), int.__repr__(rank), *bid, *share,
                          *ratio_pair(*final), *ratio_pair(*payment), *ratio_pair(*utility))
                for agent_id, rank, bid, share, final, payment, utility in rows
            ]
            branches.append(_BRANCH % (
                self._label(outcome), int.__repr__(outcome.realized_m),
                *_pair(outcome.branch_probability), _block(agents, "      "),
            ))
        # keyed by id, so a repeated id keeps its first place and its last value
        eus = dict(zip(self.agent_ids, (ratio_str(*u) for u in self.expected_utilities)))
        w = self.welfare
        fields = [
            _escape(self.captable), int.__repr__(self.config.n), int.__repr__(self.config.m_bar),
            _escape(self.mode), "null" if self.seed is None else int.__repr__(self.seed),
            _block(ids, "  "), _block([ids[a] for a in high.order], "  "),
            *_pair(high.price), *_pair(high.branch_probability), *_pair(low.branch_probability),
            _block(branches, "  "),
            _block([f'{_escape(key)}: "{eu}"' for key, eu in eus.items()], "  ", "{}"),
            _WELFARE % (*_pair(w.initial_welfare), *_pair(w.expected_mbm_welfare),
                        *_pair(w.first_best), *_pair(w.preservation_ratio)),
        ]
        keys = _REPORT_KEYS
        if self.checks:
            keys += ('"checks": %s',)
            fields.append(_block([
                _CHECK % (_escape(c.name), "true" if c.holds else "false", int.__repr__(c.cases),
                          "null" if c.witness is None else _escape(c.witness.detail))
                for c in self.checks
            ], "  "))
        return _block(keys, "", "{}") % tuple(fields) + "\n"

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
        buf.write(_CSV_HEADER)
        ids = [_csv_field(agent_id) for agent_id in self.agent_ids]
        eus = [ratio_str(*u) for u in self.expected_utilities]
        for outcome, rows in self._shown(ratio_str):
            head = (f"{self._label(outcome)},{outcome.realized_m},"
                    f"{rational_str(outcome.branch_probability)},")
            for (_, rank, bid, share, final, payment, utility), agent_id, eu in zip(rows, ids, eus):
                buf.write(_CSV_ROW % (head, agent_id, rank, bid, share, *ratio_pair(*final),
                                      *ratio_pair(*payment), ratio_str(*utility), eu))
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


# every csv cell but the agent id is a numeral, an int or a fixed label, which
# csv never quotes; a row template follows its branch's three cells and comma
_CSV_HEADER = (
    "branch,owner_count,probability,agent_id,rank,bid,initial_share,final_share,"
    "final_share_approx,payment,payment_approx,adjusted_utility,expected_adjusted_utility\n"
)
_CSV_ROW = "%s%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n"


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it in a row: through the writer if csv may quote it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((text,))
        return buf.getvalue()[:-1]
    return text


def _pair(value) -> tuple:
    return ratio_pair(*as_ratio(value))


def _block(items, indent: str, brackets: str = "[]") -> str:
    """The list (or, with ``brackets`` "{}", the object of '"key": value' items)
    that ``json.dumps(..., indent=2)`` writes at ``indent``, each item already
    written one level deeper."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


# Templates of the fixed-key json objects, laid out at their depth in the output.
# Text goes in through the escaper json.dumps uses, ints through int.__repr__;
# a numeral's text (digits and "-/.E+", which json writes as they are) and the
# branch label are quoted by the template.
_AGENT = _block((
    '"agent_id": %s', '"rank": %s', '"bid": "%s"', '"bid_approx": "%s"',
    '"initial_share": "%s"', '"initial_share_approx": "%s"', '"final_share": "%s"',
    '"final_share_approx": "%s"', '"payment": "%s"', '"payment_approx": "%s"',
    '"adjusted_utility": "%s"', '"adjusted_utility_approx": "%s"',
), " " * 8, "{}")
_BRANCH = _block((
    '"branch": "%s"', '"owner_count": %s', '"probability": "%s"',
    '"probability_approx": "%s"', '"agents": %s',
), " " * 4, "{}")
_WELFARE = _block((
    '"initial": "%s"', '"initial_approx": "%s"', '"expected": "%s"', '"expected_approx": "%s"',
    '"first_best": "%s"', '"first_best_approx": "%s"', '"preservation_ratio": "%s"',
    '"preservation_ratio_approx": "%s"',
), "  ", "{}")
_CHECK = _block(('"property": %s', '"holds": %s', '"cases": %s', '"witness": %s'), " " * 4, "{}")
_VERDICT = _block((
    '"suite": %s', '"property": %s', '"instance": %s', '"holds": %s', '"cases": %s',
    '"witness": %s',
), "  ", "{}")
# the report's top-level keys, before the optional "checks"
_REPORT_KEYS = (
    '"captable": %s', '"n": %s', '"m_bar": %s', '"mode": %s', '"seed": %s', '"agents": %s',
    '"ranking": %s', '"price": "%s"', '"price_approx": "%s"', '"p_high": "%s"',
    '"p_high_approx": "%s"', '"p_low": "%s"', '"p_low_approx": "%s"', '"branches": %s',
    '"expected_adjusted_utility": %s', '"welfare": %s',
)


def _verdicts_json(verdicts) -> str:
    """``mbm verify``'s output: ``json.dumps(indent=2)`` of one object per
    (suite, PropertyReport) in ``verdicts``, byte for byte."""
    return _block([
        _VERDICT % (_escape(suite), _escape(r.name), _escape(r.instance),
                    "true" if r.holds else "false", int.__repr__(r.cases),
                    "null" if r.witness is None else _escape(r.witness.detail))
        for suite, r in verdicts
    ], "") + "\n"


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
