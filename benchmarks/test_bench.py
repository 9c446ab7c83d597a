"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# failures the program is expected to have on the tiny captable-run round:
# the three known-failing cap tables, one per output format
KNOWN_FAILING = {"captable-run": 3}

COUNT_SUFFIXES = (".calls", ".cases", ".eval_ratio", ".hit_ratio", ".candidates", "bytes_out")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [
            sys.executable,
            str(cwd / "benchmarks" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


def test_spec_names_the_workloads():
    assert WORKLOAD_NAMES == ["welfare-sweep", "oracle-suite", "coalition-search", "captable-run"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    meta, result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, meta["wrong"]
    assert result["attempted"] >= 1
    assert result["failed"] == KNOWN_FAILING.get(workload, 0), meta["refused"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["rational_backend"] in ("gmpy2", "fractions")
    assert meta["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_runs_repeat_their_counts(workload):
    first_meta, first = result_of(bench(workload, trace=1))
    second_meta, second = result_of(bench(workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == expected
    counts = [name for name in expected if name.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first_meta["output_digest"] == second_meta["output_digest"]
    assert first["metrics"]["cli.main.calls"]["value"] == first_meta["requests_per_round"]


def test_output_digest_is_the_same_traced_and_untraced():
    untraced, _ = result_of(bench("oracle-suite", trace=0))
    traced, _ = result_of(bench("oracle-suite", trace=1))
    assert untraced["output_digest"] == traced["output_digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("oracle-suite", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
