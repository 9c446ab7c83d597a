"""Spans around the calls into each ``mbm`` layer, for the traced run.

Tracing is installed from outside the program: each public callable in
``TRACED`` is replaced by a timing wrapper wherever an ``mbm`` module binds
it -- module globals (``from .core import rank_bids`` binds a copy in the
importer), function defaults bound at definition time (``engine=run_expected``)
and class attributes for methods. Nothing under ``src/`` is edited.

Spans are kept in memory (up to ``SPAN_CAP`` of them, the rest only
counted) and written out when the run ends. A span's self time is its
duration minus the time of the spans it caused.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> (module, attribute path)
TRACED = {
    "cli.main": ("mbm.cli", "main"),
    "rational.rational": ("mbm.rational", "rational"),
    "rational.rational_str": ("mbm.rational", "rational_str"),
    "rational.decimal_approx": ("mbm.rational", "decimal_approx"),
    "core.run_expected": ("mbm.core", "run_expected"),
    "core._run_expected": ("mbm.core", "_run_expected"),
    "core.rank_bids": ("mbm.core", "rank_bids"),
    "core.Allocation.validate": ("mbm.core", "Allocation.validate"),
    "core.BidProfile": ("mbm.core", "BidProfile.__init__"),
    "core.realize": ("mbm.core", "realize"),
    "core.expected_adjusted_utility": ("mbm.core", "expected_adjusted_utility"),
    "properties.check_budget_balance": ("mbm.properties", "check_budget_balance"),
    "properties.check_individual_rationality": ("mbm.properties", "check_individual_rationality"),
    "properties.check_price_monotonicity": ("mbm.properties", "check_price_monotonicity"),
    "properties.check_strategyproofness": ("mbm.properties", "check_strategyproofness"),
    "properties.check_weak_group_strategyproofness": (
        "mbm.properties",
        "check_weak_group_strategyproofness",
    ),
    "properties.check_pp_expost_efficiency": ("mbm.properties", "check_pp_expost_efficiency"),
    "properties.deviation_grid": ("mbm.properties", "deviation_grid"),
    "welfare.sweep_point": ("mbm.welfare", "sweep_point"),
    "welfare.expected_mbm_welfare": ("mbm.welfare", "expected_mbm_welfare"),
    "welfare.social_welfare": ("mbm.welfare", "social_welfare"),
    "suites.generate_suite": ("mbm.suites", "generate_suite"),
    "suites.run_suite": ("mbm.suites", "run_suite"),
    "instances.generate": ("mbm.instances", "generate"),
    "instances.perturbed_profile": ("mbm.instances", "perturbed_profile"),
    "captable.parse_captable": ("mbm.captable", "parse_captable"),
    "captable.to_instance": ("mbm.captable", "to_instance"),
    "report.build_run_report": ("mbm.report", "build_run_report"),
    "report.RunReport.to_json": ("mbm.report", "RunReport.to_json"),
    "report.RunReport.to_csv": ("mbm.report", "RunReport.to_csv"),
    "report.RunReport.to_text": ("mbm.report", "RunReport.to_text"),
}

ORACLES = (
    "properties.check_budget_balance",
    "properties.check_individual_rationality",
    "properties.check_price_monotonicity",
    "properties.check_strategyproofness",
    "properties.check_weak_group_strategyproofness",
    "properties.check_pp_expost_efficiency",
)
GROUP_SP = "properties.check_weak_group_strategyproofness"
REPORT_RENDERERS = ("report.RunReport.to_json", "report.RunReport.to_csv", "report.RunReport.to_text")

SPAN_CAP = 200_000


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the wrappers and accumulates calls, self time and counts."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self.request = -1
        self._stack = []  # [span id, child ns] per open span
        self._next_id = 0
        self._cache = None

    def install(self) -> None:
        """Replace every binding of each TRACED callable in the loaded mbm modules."""
        mbm_modules = [
            m for name, m in sys.modules.items() if name == "mbm" or name.startswith("mbm.")
        ]
        functions = [
            f
            for m in mbm_modules
            for f in vars(m).values()
            if inspect.isfunction(f) and f.__module__.startswith("mbm")
        ]
        functions += [
            f
            for m in mbm_modules
            for cls in vars(m).values()
            if inspect.isclass(cls) and cls.__module__.startswith("mbm")
            for f in vars(cls).values()
            if inspect.isfunction(f)
        ]
        wrapper_of = {}  # id of a module-level original -> its wrapper
        for name, (module_name, path) in TRACED.items():
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._wrap(name, original)
            if name == "core.run_expected":
                self._cache = original if hasattr(original, "cache_info") else None
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
            else:
                wrapper_of[id(original)] = wrapper
        for module in mbm_modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrapper_of:
                    setattr(module, key, wrapper_of[id(value)])
        for f in functions:
            if f.__defaults__:
                f.__defaults__ = tuple(wrapper_of.get(id(d), d) for d in f.__defaults__)
            if f.__kwdefaults__:
                for key, d in f.__kwdefaults__.items():
                    f.__kwdefaults__[key] = wrapper_of.get(id(d), d)

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter_ns
        count_engine = name == GROUP_SP

        def traced(*args, **kwargs):
            if count_engine:
                args, kwargs = self._count_engine_calls(fn, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, start, end, self.request))
                else:
                    self.dropped += 1
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _count_engine_calls(self, fn, args, kwargs):
        # the signature is read per call: install() patches the defaults after wrapping
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        engine = bound.arguments["engine"]

        def counted(*a, **k):
            self.counts["group_sp_evals"] += 1
            return engine(*a, **k)

        bound.arguments["engine"] = counted
        return bound.args, bound.kwargs

    def _observe(self, name: str, result) -> None:
        if name in ORACLES:
            self.counts[f"{name}.cases"] += result.cases
        elif name == "properties.deviation_grid":
            self.counts["properties.deviation_grid.candidates"] += len(result.candidates)
        elif name in REPORT_RENDERERS:
            self.counts["report.bytes_out"] += len(result.encode("utf-8"))

    def cache_snapshot(self):
        """(hits, misses) of the run_expected cache, or None when it has none."""
        if self._cache is None:
            return None
        info = self._cache.cache_info()
        return info.hits, info.misses

    def metrics(self, rounds: int, hits: int, misses: int) -> dict:
        """Per-layer metrics, counts and times per round."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_ms"] = (self.self_ns[name] / rounds / 1e6, "ms")
        for name in ORACLES:
            out[f"{name}.cases"] = (self.counts[f"{name}.cases"] / rounds, "count")
        cases = self.counts[f"{GROUP_SP}.cases"]
        evals = self.counts["group_sp_evals"]
        out[f"{GROUP_SP}.eval_ratio"] = (evals / cases if cases else 0.0, "ratio")
        out["properties.deviation_grid.candidates"] = (
            self.counts["properties.deviation_grid.candidates"] / rounds,
            "count",
        )
        lookups = hits + misses
        out["core.run_expected.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        out["report.bytes_out"] = (self.counts["report.bytes_out"] / rounds, "bytes")
        return out

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines: id, parent, name, start_ns, end_ns, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")
