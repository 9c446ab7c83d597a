"""The package surface: ``mbm.__all__``, its caches and the README's library quickstart."""

import importlib
import pkgutil
import re
import sys
from pathlib import Path

import mbm
from mbm import core, properties, welfare
from mbm.rational import rational

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_resolve_once_in_sorted_order():
    assert all(hasattr(mbm, name) for name in mbm.__all__)
    assert len(set(mbm.__all__)) == len(mbm.__all__)
    assert mbm.__all__ == sorted(mbm.__all__)


def test_engine_pieces_outside_run_expected_are_not_exported():
    gone = (
        "Ranking",
        "apply_branch",
        "threshold_price",
        "branch_probabilities",
        "InvalidOwnerCount",
    )
    for name in gone:
        assert name not in mbm.__all__
        assert not hasattr(mbm, name)


def test_deleted_welfare_helpers_are_not_exported():
    # test_welfare checks their identities against formulas written out there
    for name in ("uniform_grid_limit", "uniform_grid_prefix_sums"):
        assert name not in mbm.__all__
        assert not hasattr(mbm, name)
        assert not hasattr(welfare, name)


def test_deleted_utility_readers_and_repricer_are_gone():
    # one reader (core._utilities) and one settlement (core._settle) replace them
    assert "expected_adjusted_utilities" not in mbm.__all__
    for owner, name in (
        (mbm, "expected_adjusted_utilities"),
        (core, "expected_adjusted_utilities"),
        (core, "_utility_numerators"),
        (properties, "_repriced"),
    ):
        assert not hasattr(owner, name), name
    # names the benchmark's tracer resolves stay
    for name in ("rank_bids", "_run_expected", "expected_adjusted_utility"):
        assert hasattr(core, name), name
    assert hasattr(properties, "deviation_grid")
    assert hasattr(welfare, "sweep_point")


def test_realize_memo_is_the_only_cache():
    # every module loaded, then every object with a cache_clear, once each
    for info in pkgutil.iter_modules(mbm.__path__):
        importlib.import_module(f"mbm.{info.name}")
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "mbm" or name.startswith("mbm."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    assert list(caches.values()) == [core._realize_expected]


def _annotated_value(text):
    # "5", "4/5" or a tuple such as "(5/8, 3/8, 0)"
    if text.startswith("("):
        return tuple(rational(part.strip()) for part in text[1:-1].split(","))
    return rational(text)


def test_readme_quickstart_runs_with_the_annotated_values():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    annotated = dict(
        re.findall(r"^(\S[^#\n]*?)\s+#\s+(\([^)]*\)|\S+)", code, re.M)
    )
    assert annotated == {
        "outcome.high_branch.price": "5",
        "outcome.high_branch.branch_probability": "4/5",
        "outcome.high_branch.final_allocation.shares": "(5/8, 3/8, 0)",
        "welfare_report(initial, bids, config).expected_mbm_welfare": "17/2",
    }
    for expression, text in annotated.items():
        assert eval(expression, namespace) == _annotated_value(text), expression
