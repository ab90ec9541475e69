"""Speed meter: scales measured intervals to a nominal machine speed.

A shared host's speed drifts: on a shared 2-vCPU x86 VM (Python 3.11),
the same rep took anywhere from 1.8 s to 3.5 s within five minutes,
in slow and fast phases lasting tens of seconds, and a plain CPU loop
drifted with it. A median over one run cannot remove a phase that covers
the whole run, so every interval is scaled by the machine's speed at the
time it was measured.

The meter runs a fixed pure-Python probe (hashing, dict inserts, float
math, a sort; no dmap code, so no change to the program can move it)
after every ``SEGMENT_S`` of measured time. An interval measured between
two probes is multiplied by ``NOMINAL_PROBE_S`` over the mean of those
two probe times, so every reported time reads as seconds at the speed
where the probe takes ``NOMINAL_PROBE_S``. Probe time itself is never
part of a measured interval. On that VM this cut the ten-seed spread
(quartile distance over median) of ``run_s`` from 20-30 % to under 6 %.
"""

from __future__ import annotations

import hashlib
import math
from time import perf_counter

NOMINAL_PROBE_S = 4.5e-4  # typical probe time on that VM
SEGMENT_S = 0.05          # measured time between probes (about 2 % overhead)


def _probe_work() -> int:
    table = {}
    acc = 0.0
    for i in range(300):
        b = i.to_bytes(8, "big") * 4
        table[hashlib.sha256(b).digest()] = (i, b)
        acc += math.hypot(i * 0.5, i * 0.25)
    return len(sorted(table.items(), key=lambda kv: kv[1][1][::-1])) + int(acc)


def _probe() -> float:
    """Fastest of three runs: a hiccup slows one run, a slow phase all three."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - t0)
    return best


class SpeedMeter:
    """Collects raw intervals and appends their scaled values to sinks."""

    def __init__(self) -> None:
        self._prev = _probe()
        self._pending: list[tuple[float, tuple[list, ...]]] = []
        self._raw = 0.0

    def add(self, seconds: float, *sinks: list) -> None:
        """Record one measured interval; its scaled value goes to each sink."""
        self._pending.append((seconds, sinks))
        self._raw += seconds
        if self._raw >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        """Probe now and scale every interval recorded since the last probe."""
        if not self._pending:
            return
        now = _probe()
        factor = NOMINAL_PROBE_S / ((self._prev + now) / 2)
        self._prev = now
        for seconds, sinks in self._pending:
            for sink in sinks:
                sink.append(seconds * factor)
        self._pending.clear()
        self._raw = 0.0
