"""Host-speed probe: puts timings from a shared machine on one scale.

The machine the benchmark runs on is shared with other guests, and the
speed it gives one core moves by 40% or more within seconds, even in CPU
time. A fixed piece of work that does not use the program, timed between
the program's operations, moves with it. Each operation's CPU time is
scaled by REFERENCE_NS / (the probe's time around it), so a reported time
reads as the time the operation would take on a core where the probe takes
REFERENCE_NS. Only the ratio matters for comparing two versions of the
program; the constant just keeps the units in seconds.

The probe mixes what the program spends its time on: pure-Python byte
loops (like the bitwise CRC) and small numpy integer and float operations
(like the int8 kernel and the plant step). It is the benchmark's own code
and calls nothing in the package, so a change to the package cannot move it.
"""
from __future__ import annotations

from time import process_time_ns

import numpy as np

REFERENCE_NS = 4_500_000   # about the probe's CPU time on an idle core of the baseline host
REPEATS = 3                # a sample is the fastest of this many probe runs

_rng = np.random.default_rng(0)
_BYTES = bytes(_rng.integers(0, 256, 256, dtype=np.uint8))
_W = _rng.integers(-127, 128, (128, 24)).astype(np.int32)
_X = _rng.integers(-127, 128, 24).astype(np.int32)
_F = _rng.normal(size=(64, 24)).astype(np.float32)


def _crc(data: bytes) -> int:
    c = 0
    for b in data:
        c ^= b
        for _ in range(8):
            c = ((c << 1) ^ 0x07) & 0xFF if c & 0x80 else (c << 1) & 0xFF
    return c


def _work() -> None:
    for _ in range(8):
        _crc(_BYTES)
    for _ in range(200):
        y = np.clip((_W @ _X * 3) >> 4, -128, 127).astype(np.int8)
        np.tanh(_F[:, :8]).sum() + y[0]


def _time() -> int:
    best = None
    for _ in range(REPEATS):
        t0 = process_time_ns()
        _work()
        t = process_time_ns() - t0
        best = t if best is None else min(best, t)
    return best


class SpeedProbe:
    """Samples the probe before and after every timed unit of work; each
    unit is scaled by the mean of the two samples around it."""

    def __init__(self, tracer):
        self._tracer = tracer
        self._last = 0
        self.samples_ns: list[int] = []

    def _sample(self) -> int:
        ns = self._tracer.call("bench.probe", _time)
        self.samples_ns.append(ns)
        return ns

    def mark(self) -> None:
        """Sample before a unit of work that follows untimed work."""
        self._last = self._sample()

    def scale(self) -> float:
        """Factor for the unit of work that ended just now; its sample is
        also the one before the next unit."""
        now = self._sample()
        factor = 2 * REFERENCE_NS / (self._last + now)
        self._last = now
        return factor
