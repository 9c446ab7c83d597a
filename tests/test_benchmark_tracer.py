"""The benchmark's tracer finds mbm functions by name; keep those names real.

``benchmarks/spans.py`` wraps each callable it lists in ``TRACED``, looked up
by module and attribute strings, and reads fields off some results. A
rename in ``src`` breaks it without failing any other test here.
"""

import importlib
import importlib.util
from pathlib import Path

from mbm import BidProfile, deviation_grid
from mbm.rational import Rational as Q

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    for name, (module_name, path) in spans.TRACED.items():
        importlib.import_module(module_name)
        _, _, target = spans._resolve(module_name, path)
        assert callable(target), name


def test_deviation_grid_result_has_candidates():
    # the tracer adds up len(result.candidates) over deviation_grid calls
    grid = deviation_grid(BidProfile((Q(10), Q(5), Q(2))), 0)
    assert len(grid.candidates) > 0
