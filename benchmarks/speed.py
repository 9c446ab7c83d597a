"""Machine-speed readings, so that reported times do not follow the host.

On the shared two-CPU hosts this benchmark was built on, the speed of a
CPU flips between two states, for stretches of a tenth of a second to
several seconds: ``mbm`` requests take 1.7 to 1.8 times as long in the
slow state. Over a 20 s run the share of slow time differs from run to
run, which moved raw latencies by 20 to 40 % between runs of the same code.

So every time the benchmark reports is scaled to a nominal speed: the
speed at which a small reference kernel takes ``NOMINAL_MS``. The kernel
is timed before and after each request and, from a SIGALRM timer, every
``TICK_SECONDS`` while the request runs (see ``measure``). It ranks bids
and buys out sellers on exact ``fractions`` values the way the engine
does, so it slows down about as much as ``mbm`` does (1.8 times; plain
Fraction arithmetic slows 1.9 times). It is written here so that no change
to ``mbm`` can alter it. On a host whose speed is steady the scaling is a
constant factor.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

NOMINAL_MS = 0.5  # the kernel's time at the nominal speed, by definition
TICK_SECONDS = 0.025

_KERNEL_AGENTS = 8
_KERNEL_PASSES = 3


def _kernel() -> None:
    rng = random.Random(5)
    n = _KERNEL_AGENTS
    for _ in range(_KERNEL_PASSES):
        weights = [rng.randint(1, 1 << 16) for _ in range(n)]
        total = sum(weights)
        shares = tuple(Fraction(w, total) for w in weights)
        bids = tuple(Fraction(rng.randint(1, 1 << 16), 4096) for _ in range(n))
        order = sorted(range(n), key=bids.__getitem__, reverse=True)
        buyers = n // 2
        price = bids[order[buyers - 1]]
        bought = sum((shares[a] for a in order[:buyers]), Fraction(0))
        ratio = (1 - bought) / bought
        final, money = list(shares), [Fraction(0)] * n
        for pos, agent in enumerate(order):
            if pos < buyers:
                final[agent] = shares[agent] * (1 + ratio)
                money[agent] = -shares[agent] * ratio * price
            else:
                final[agent] = Fraction(0)
                money[agent] = shares[agent] * price
        str(sum(final)) + str(sum(money))


def reference_ms() -> float:
    """Milliseconds for one pass of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return (time.perf_counter() - start) * 1e3


def nominal(seconds: float, readings) -> float:
    """``seconds`` at the mean of the speeds the kernel ``readings`` (ms) show.

    Speeds, not times, are averaged: a stretch split between the two states
    does work in proportion to the mean speed.
    """
    readings = list(readings)
    return seconds * NOMINAL_MS * sum(1 / ms for ms in readings) / len(readings)


def measure(fn):
    """Run ``fn()``; return (its result, seconds, nominal seconds, kernel readings).

    The kernel is read just before and just after ``fn`` and on a SIGALRM
    timer while it runs. Those readings cut the run into slices; each
    slice is scaled by the mean speed at its two ends, and the timer's own
    kernel runs are left out of both totals. Single-threaded use only.
    """
    ticks = []  # (start, end, ms) of each timer reading

    def tick(signum, frame):
        start = time.perf_counter()
        ms = reference_ms()
        ticks.append((start, time.perf_counter(), ms))

    first = reference_ms()
    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    last = reference_ms()
    ticks = [t for t in ticks if t[0] < end]  # one may land between `end` and disarming

    seconds = scaled = 0.0
    slice_start, start_ms = start, first
    for tick_start, tick_end, ms in [*ticks, (end, end, last)]:
        seconds += tick_start - slice_start
        scaled += nominal(tick_start - slice_start, (start_ms, ms))
        slice_start, start_ms = tick_end, ms
    return result, seconds, scaled, [first, *(ms for *_, ms in ticks), last]
