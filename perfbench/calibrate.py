"""Machine-speed calibration of the benchmark's timings.

The host this benchmark was tuned on is shared: over seconds to minutes the
same single-threaded pass runs up to 1.7x slower or faster, while steal time
stays near zero, so the slowdown comes from contention inside the CPU, not
from lost CPU time. Raw wall times of ten runs then spread by 30% and more.

A fixed probe kernel, independent of `curv`, is therefore timed along the
run, also in the middle of long operations. It does the two kinds of work
`curv` spends its time on: the per-point geometry path (small numpy arrays,
a generalized `scipy.linalg.eigh`, a frozen dataclass per point) and the
scalar sampling loop (one small matmul and `sin` per sample along a ray).
Contention slows it by about the same factor as the workloads. A calibrated
time is the raw time scaled by `NOMINAL_S` / (the probe's median time around
the measured interval): the time the operation would take at the speed at
which the probe takes `NOMINAL_S`.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: the probe's time at the reference speed: its typical median on the 2-core
#: host the benchmark was tuned on (Python 3.11, numpy 2.4, scipy 1.17),
#: so that calibrated times read close to wall times there
NOMINAL_S = 0.0045
#: take probe samples when this much time has passed since the last ones
EVERY_S = 0.05
#: at most this many samples at one point (after a long operation)
MAX_SAMPLES = 8
#: samples this close to an interval (plus the nearest on each side) set its speed
WINDOW_S = 0.3

_RNG = np.random.default_rng(20110402)
_FREQS = _RNG.uniform(-1.7, 1.7, size=(4, 2))
_PHASES = _RNG.uniform(0.0, 2.0 * np.pi, size=4)
_AMPS = _RNG.uniform(0.1, 0.3, size=4)
_POINTS = [np.asarray(x) for x in _RNG.uniform(-1.0, 1.0, size=(40, 2))]
_FREQS3 = _RNG.uniform(-1.7, 1.7, size=(4, 3))
_RAY = _RNG.standard_normal(3) / np.sqrt(3.0)
_RAY_STEPS = [t * _RAY for t in np.linspace(0.0, 2.0, 480)]


@dataclass(frozen=True)
class _Graph:
    mean_curvature: float
    principal: np.ndarray


def _graph_point(x: np.ndarray) -> _Graph:
    arg = _FREQS @ x + _PHASES
    grad = (_AMPS * np.cos(arg)) @ _FREQS
    hess = np.einsum("k,ki,kj->ij", -_AMPS * np.sin(arg), _FREQS, _FREQS)
    w2 = 1.0 + float(grad @ grad)
    shape = (np.eye(2) - np.outer(grad, grad) / w2) @ hess / np.sqrt(w2)
    induced = np.eye(2) + np.outer(grad, grad)
    form = induced @ shape
    principal = scipy.linalg.eigh(0.5 * (form + form.T), induced, eigvals_only=True)
    return _Graph(float(np.trace(shape)), principal)


def probe() -> float:
    """The probe kernel: geometry at its fixed points, then a ray scan."""
    total = sum(_graph_point(x).mean_curvature for x in _POINTS)
    for x in _RAY_STEPS:
        total += float(_AMPS @ np.sin(_FREQS3 @ x + _PHASES))
    return total


class Calibrator:
    """Probe samples along the run's timeline and the speed factor they give."""

    def __init__(self):
        self.times: list[float] = []  # start of each sample, in order
        self.values: list[float] = []  # its duration
        self._last = -np.inf
        self._in_alarm = False
        probe()  # the first call pays for lazy set-up in scipy

    def _take(self) -> None:
        t0 = time.perf_counter()
        probe()
        self.times.append(t0)
        self.values.append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if self._in_alarm:
            return
        self._in_alarm = True
        try:
            self._take()
        finally:
            self._in_alarm = False

    @contextlib.contextmanager
    def interrupting(self):
        """Take a sample every `EVERY_S` of wall time from a SIGALRM handler,
        also in the middle of long operations (see `inside`)."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def sample(self, force: bool = False) -> None:
        """Take probe samples if `EVERY_S` has passed (or `force`): one per
        `EVERY_S` elapsed, at most `MAX_SAMPLES`."""
        gap = time.perf_counter() - self._last
        if gap < EVERY_S and not force:
            return
        for _ in range(int(min(max(gap / EVERY_S, 1), MAX_SAMPLES))):
            self._take()

    def inside(self, start: float, end: float) -> float:
        """Time spent in samples that started within [start, end): what an
        interrupted interval must not count as its own."""
        return sum(self.values[bisect.bisect_left(self.times, start):bisect.bisect_left(self.times, end)])

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the probe's median time around [start, end]."""
        i0 = min(bisect.bisect_left(self.times, start - WINDOW_S), bisect.bisect_left(self.times, start) - 1)
        i1 = max(bisect.bisect_right(self.times, end + WINDOW_S), bisect.bisect_right(self.times, end) + 1)
        window = self.values[max(i0, 0):i1]
        if not window:
            raise RuntimeError("no calibration sample near the measured interval")
        return NOMINAL_S / statistics.median(window)
