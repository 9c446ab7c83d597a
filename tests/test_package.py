"""The package surface: ``mbm.__all__``, no cache, no dead private helper,
one extra and the README's library quickstart."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import mbm
from mbm import core, properties, report, welfare
from mbm.rational import rational

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.with_name("src") / "mbm"
PYPROJECT = README.with_name("pyproject.toml")


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


def test_uncalled_welfare_names_are_gone():
    # welfare_report's first_best field and the k/n list replace them
    for name in ("first_best", "valid_alphas"):
        assert name not in mbm.__all__
        assert not hasattr(mbm, name)
        assert not hasattr(welfare, name)


def test_deleted_utility_readers_and_repricer_are_gone():
    # one reader (core._utilities) and one settlement (core._settle) replace
    # them, and realize draws on run_expected with no memo in front
    assert "expected_adjusted_utilities" not in mbm.__all__
    for owner, name in (
        (mbm, "expected_adjusted_utilities"),
        (core, "expected_adjusted_utilities"),
        (core, "_utility_numerators"),
        (core, "_realize_expected"),
        (core, "_utility_ratios"),
        (properties, "_repriced"),
    ):
        assert not hasattr(owner, name), name
    # names the benchmark's tracer resolves stay
    for name in ("rank_bids", "_run_expected", "expected_adjusted_utility"):
        assert hasattr(core, name), name
    assert hasattr(properties, "deviation_grid")
    assert hasattr(welfare, "sweep_point")


def test_the_dict_layer_and_generic_json_walker_are_gone():
    # RunReport.to_json and mbm verify write their json from fixed templates
    assert not hasattr(report.RunReport, "to_dict")
    for name in ("dumps_indented", "_write", "json"):
        assert not hasattr(report, name), name
    assert hasattr(report.RunReport, "to_json")  # the name the benchmark's tracer resolves


def test_every_private_helper_has_a_caller_in_the_package():
    # a module-level _name defined in src/mbm is read somewhere in src/mbm
    # besides its definition, as a name or an attribute
    exempt = {"_run_expected"}  # the name under which benchmarks/spans.py traces the engine
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - read - exempt) == []


def test_no_mbm_object_has_a_cache_clear():
    # every module loaded, then no object in any of them is a cache
    for info in pkgutil.iter_modules(mbm.__path__):
        importlib.import_module(f"mbm.{info.name}")
    caches = [
        f"{name}.{key}"
        for name, module in list(sys.modules.items())
        if name == "mbm" or name.startswith("mbm.")
        for key, value in vars(module).items()
        if callable(getattr(value, "cache_clear", None))
    ]
    assert caches == []


def test_the_test_extra_is_the_only_optional_dependency():
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    with open(PYPROJECT, "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
    assert list(project["optional-dependencies"]) == ["test"]


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
