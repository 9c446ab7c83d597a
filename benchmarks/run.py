"""Benchmark of the ``mbm`` command line, driven in-process.

Usage (from the repository root):

    python3 benchmarks/run.py --workload oracle-suite --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each request is a call of
``mbm.cli.main(argv)`` with stdout and stderr captured, and the next
request is sent only when the previous one returned. Before every request
the caches of ``mbm`` are cleared and the heap collected (outside the
timed call), so a request does what it would do in a fresh ``mbm``
process. Every output is checked (see ``workloads.py``) and its digest
must repeat whenever the same request runs again.

The run repeats its workload's round until ``--seconds`` have passed, at
least 100 requests have run and no further round fits; it runs a second
round whenever that ends within twice ``--seconds``. With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it first times one
untraced round, then installs the spans of ``spans.py`` and prints the
per-layer metrics, including the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics; the line
before it holds the run's metadata.

The program is imported from ``src/`` next to this directory; when it is
missing the benchmark exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import measure, nominal, reference_ms
from workloads import SIZES, WORKLOADS, build_round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REQUESTS = 100  # so that at least ten requests lie above the 90th percentile
MAX_SECONDS = 150  # stop adding rounds past this, whatever else holds
SETUP_PROBES = 7

# exit codes the program uses to refuse a request rather than answer it
_ANSWER_CODES = (0, 1)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", choices=SIZES, default="full", help="tiny: a few small requests, for the self-test"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_mbm():
    """Import the package from this checkout's src/, or exit 2."""
    if not (SRC / "mbm" / "__init__.py").is_file():
        _fail(f"no mbm sources at {SRC / 'mbm'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mbm.cli

    if Path(mbm.cli.__file__).resolve().parent != SRC / "mbm":
        _fail(f"imported mbm from {mbm.cli.__file__}, not from {SRC}")
    return mbm


def _setup(args, work_dir: Path):
    """Everything between process start and the first request."""
    mbm = _import_mbm()
    work_dir.mkdir(parents=True, exist_ok=True)
    return mbm, build_round(args.workload, args.seed, args.size, work_dir)


def _measure_setup(args) -> list:
    """(seconds, speed readings) of fresh processes doing the set-up.

    Each probe is timed from its launch until its first request is due.
    The speed readings come from this process just before the launch and
    from the probe just after it reported ready, since the probe may run
    on another CPU.
    """
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", "0",
        "--size", args.size,
        "--setup-probe",
    ]
    probes = []
    for _ in range(SETUP_PROBES):
        before = reference_ms()
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as probe:
            ready = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            after = probe.stdout.read().split()
        if probe.returncode != 0 or ready.strip() != b"ready" or not after:
            _fail(f"set-up probe failed with exit code {probe.returncode}")
        probes.append((elapsed, [before, *map(float, after)]))
    return probes


def _mbm_caches() -> list:
    """Every lru_cache-style cache in the mbm modules, found by its cache_clear."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "mbm" or name.startswith("mbm."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


class Runner:
    """Sends the round's requests one at a time and keeps what they cost."""

    def __init__(self, main, chunks, caches):
        self.main = main
        self.chunks = chunks
        self.requests = [request for chunk in chunks for request in chunk]
        self.caches = caches
        self.tracer = None
        self.digests = [None] * len(self.requests)
        # per request: (round, chunk, seconds, nominal seconds, units completed)
        self.samples = []
        self.readings = []  # every reference-kernel reading, in ms
        self.chunks_run = 0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.refused = []
        self.cache_hits = 0
        self.cache_misses = 0

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        crashed = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            except Exception as exc:  # an internal error is a failed request, not a crash
                code, crashed = None, repr(exc)
        return code, out.getvalue(), crashed or err.getvalue().strip()

    def run_round(self) -> None:
        index = 0
        for chunk in self.chunks:
            for request in chunk:
                self._send(index, request)
                index += 1
            self.chunks_run += 1
        self.rounds += 1

    def _send(self, index, request) -> None:
        """One request: fresh caches and heap, speed readings around it, then its check."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        if self.tracer is not None:
            self.tracer.request = index
            before = self.tracer.cache_snapshot()
        (code, out, err), seconds, scaled, readings = measure(lambda: self.call(request.argv))
        self.readings += readings
        if self.tracer is not None and before is not None:
            hits, misses = self.tracer.cache_snapshot()
            self.cache_hits += hits - before[0]
            self.cache_misses += misses - before[1]
        self.attempted += 1
        problem = self._judge(index, request, code, out, err)
        if problem is not None:
            self.failed += 1
        units = 0 if problem else request.units
        self.samples.append((self.rounds, self.chunks_run, seconds, scaled, units))

    def _judge(self, index, request, code, out, err):
        """None when the request passed; otherwise records why and returns it."""
        digest = hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()
        if self.digests[index] is None:
            self.digests[index] = digest
        elif self.digests[index] != digest:
            return self._record(self.wrong, request, "output differs from an earlier run")
        if code not in _ANSWER_CODES:
            return self._record(self.refused, request, f"exit {code}: {err[-200:]}")
        if code != request.expect_rc:
            return self._record(self.wrong, request, f"exit {code}, expected {request.expect_rc}")
        try:
            problem = request.check(out)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is not None:
            return self._record(self.wrong, request, problem)
        return None

    @staticmethod
    def _record(bucket, request, problem):
        if len(bucket) < 20:
            bucket.append(f"{request.label}: {problem}")
        return problem

    def normalized(self):
        """(round, chunk, nominal seconds, units) per request."""
        return [(rnd, chunk, scaled, units) for rnd, chunk, _, scaled, units in self.samples]

    def raw(self):
        return [(rnd, chunk, seconds, units) for rnd, chunk, seconds, _, units in self.samples]

    def round_seconds(self) -> list:
        """Nominal seconds of request time per round."""
        totals = {}
        for rnd, _, seconds, _ in self.normalized():
            totals[rnd] = totals.get(rnd, 0.0) + seconds
        return list(totals.values())


def _run_rounds(runner, seconds, start, min_requests) -> None:
    while True:
        round_start = time.perf_counter()
        runner.run_round()
        now = time.perf_counter()
        last = now - round_start
        elapsed = now - start
        if elapsed + last > MAX_SECONDS:
            return
        # a second round repeats every request, so that each output digest
        # is checked against a repeat, if it ends by twice the run's time
        repeat = runner.rounds < 2 and elapsed + last <= 2 * seconds
        if elapsed + last / 2 >= seconds and runner.attempted >= min_requests and not repeat:
            return


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "mbm").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def _metadata(args, mbm, runner) -> dict:
    from mbm.rational import BACKEND  # mbm.rational is the function, not the module

    round_digest = hashlib.sha256("".join(runner.digests).encode()).hexdigest()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "rational_backend": BACKEND,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "mbm_version": mbm.__version__,
        "requests_per_round": len(runner.requests),
        "chunks_per_round": len(runner.chunks),
        "rounds": runner.rounds,
        "output_digest": round_digest,
        "wrong": runner.wrong,
        "refused": runner.refused,
    }


def _quantile(values, q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(values, n=100)`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def _latency_metrics(samples) -> dict:
    """Throughput (median over chunks), p50 and p90 latency of (round, chunk, seconds, units)."""
    per_chunk = {}
    for _, chunk, seconds, units in samples:
        busy, done = per_chunk.get(chunk, (0.0, 0))
        per_chunk[chunk] = (busy + seconds, done + units)
    latencies = [seconds for _, _, seconds, _ in samples]
    return {
        "throughput_per_s": statistics.median(done / busy for busy, done in per_chunk.values()),
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_p90_ms": _quantile(latencies, 90) * 1e3,
    }


def _end_to_end(runner, setup) -> dict:
    units = {"throughput_per_s": "1/s", "request_p50_ms": "ms", "request_p90_ms": "ms"}
    metrics = {
        name: (value, units[name]) for name, value in _latency_metrics(runner.normalized()).items()
    }
    metrics["setup_s"] = (statistics.median(nominal(*probe) for probe in setup), "s")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    metrics["success_rate"] = ((runner.attempted - runner.failed) / runner.attempted, "ratio")
    return metrics


def _raw(runner, setup) -> dict:
    """The same figures unscaled, for the metadata line."""
    raw = _latency_metrics(runner.raw())
    if setup:
        raw["setup_s"] = statistics.median(seconds for seconds, _ in setup)
    raw["reference_ms_median"] = statistics.median(runner.readings)
    raw["chunks"] = runner.chunks_run
    return raw


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.pop("MBM_SEED", None)  # the CLI falls back to it where --seed is absent
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        mbm, chunks = _setup(args, work_dir)
        if args.setup_probe:
            print("ready", flush=True)
            print(*(reference_ms() for _ in range(3)))
            return 0
        return _benchmark(args, mbm, chunks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _benchmark(args, mbm, chunks) -> int:
    caches = _mbm_caches()
    setup = _measure_setup(args) if args.trace == 0 else None
    runner = Runner(mbm.cli.main, chunks, caches)
    start = time.perf_counter()
    if args.trace:
        from spans import Tracer

        runner.run_round()
        runner.tracer = Tracer()
        runner.tracer.install()
        runner.main = mbm.cli.main
    # a tiny run is a smoke test and needs no percentiles
    _run_rounds(runner, args.seconds, start, MIN_REQUESTS if args.size == "full" else 0)

    if args.trace:
        tracer = runner.tracer
        metrics = tracer.metrics(runner.rounds - 1, runner.cache_hits, runner.cache_misses)
        untraced, *traced = runner.round_seconds()
        traced = statistics.median(traced)
        metrics["trace.overhead_pct"] = ((traced / untraced - 1) * 100, "%")
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = _end_to_end(runner, setup)

    meta = _metadata(args, mbm, runner)
    meta["raw"] = _raw(runner, setup)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not runner.wrong,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
