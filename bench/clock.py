"""A clock that reads in seconds of a fixed reference CPU speed.

On the small shared hosts this benchmark runs on, the same code runs up to
1.8x slower for stretches that last from a quarter of a second to more than a
minute, with nothing else running in the container (a fixed pure-Python block
alternates between about 4.3 and 6.3 ms on a 2-vCPU Xeon guest; process CPU
time slows as much as wall time, so it is not time stolen by the hypervisor).
Raw times of two runs of the same code then differ by more than any useful
bound: ten 25-second runs of one workload spread by up to 0.44 of their
median.

The clock therefore runs a fixed calibration kernel, outside every timed
interval, whenever at least CALIBRATE_EVERY_S has passed since the last one,
and scales each timed interval by REFERENCE_S over the mean of the
calibrations just before and just after it. The kernel mixes the kinds of
work qpklab does (string and integer bookkeeping, SHA-256, numpy array
arithmetic and a small eigensolve) but calls no qpklab code, so a change to
the program cannot move it. Both the raw and the scaled seconds are kept.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

CALIBRATE_EVERY_S = 0.1
# The kernel's time on the 2-vCPU Xeon guest the benchmark was defined on,
# in its faster state: scaled seconds read as seconds on that host.
REFERENCE_S = 0.0033

_VECTOR = np.exp(1j * np.arange(1 << 14))
_MATRIX = np.random.default_rng(0).standard_normal((48, 48))
_MATRIX = _MATRIX + _MATRIX.T


def calibration_kernel() -> float:
    """Fixed work whose time tracks the host's current speed."""
    total = 0
    for i in range(1500):
        bits = format(i, "016b")
        total += bits.count("1") + int(bits[::-1], 2)
    digest = b"qpklab"
    for _ in range(1500):
        digest = hashlib.sha256(digest).digest()
    vec = _VECTOR
    for _ in range(8):
        vec = np.abs(vec * _VECTOR) ** 2
    # eigvals, not eigvalsh: traced runs wrap eigvalsh to count qpklab's eigensolves.
    return total + digest[0] + float(vec[0]) + float(np.linalg.eigvals(_MATRIX)[0].real)


class Clock:
    """Times intervals of work and scales them to the reference speed.

    `start()` opens an interval and `stop()` closes it, returning a handle.
    `checkpoint()` may be called anywhere, inside an interval or between
    intervals; it is the only place the calibration kernel runs, and an open
    interval is paused while it does. `finish()` calibrates once more, after
    the last interval; only then are `raw()` and `scaled()` read.
    """

    def __init__(self):
        self.calibrations: list[float] = []
        self._segments: list[tuple[float, int]] = []  # (raw s, calibrations before it)
        self._open = None
        self._last = 0.0
        self.calibrate()

    def calibrate(self):
        start = perf_counter()
        calibration_kernel()
        self._last = perf_counter()
        self.calibrations.append(self._last - start)

    def start(self) -> int:
        self._open = perf_counter()
        return len(self._segments)

    def stop(self, first: int) -> range:
        self._close()
        self._open = None
        return range(first, len(self._segments))

    def checkpoint(self):
        running = self._open is not None
        if running:
            self._close()
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()
        if running:
            self._open = perf_counter()

    def finish(self):
        self.calibrate()

    def _close(self):
        self._segments.append((perf_counter() - self._open, len(self.calibrations)))

    def raw(self, handle: range) -> float:
        return sum(self._segments[k][0] for k in handle)

    def scaled(self, handle: range) -> float:
        total = 0.0
        for k in handle:
            seconds, before = self._segments[k]
            around = self.calibrations[before - 1:before + 1]
            total += seconds * REFERENCE_S * len(around) / sum(around)
        return total
