"""Host-speed calibration for timings taken on a shared machine.

A shared host can run the same single-threaded code at very different
speeds from one minute to the next (on the 2-core Xeon VM this benchmark
was written on, about 2x, in phases of tens of seconds to minutes, with CPU
time equal to wall time).  A medians-only benchmark cannot average over
phases that long.  So the benchmark times a fixed calibration kernel right
before and right after every measured segment, and every SAMPLE_EVERY_S
during it (from a SIGALRM handler, whose own time is taken out of the
segment).  The segment is then scaled to the speed the host had when the
kernel took REFERENCE_S.

The kernel is independent of gridfreq: a change to the program moves the
scaled times exactly as it moves the raw ones, while a change in host
speed moves the kernel and the program alike and largely cancels.  Code
slows down by different amounts in a slow phase, so the kernel mixes the
three kinds of work the simulations spend their time in, in about equal
parts: interpreter loops over dicts, numpy calls on small arrays with LU
solves, and finite-difference columns through method calls.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

# Kernel time [s] on the reference host (2-core Intel Xeon VM at 2.0 GHz,
# numpy 2.4, scipy 1.17, one BLAS thread), in its usual (slower) phase.
REFERENCE_S = 0.019
# Interval [s] between kernel samples inside a segment.
SAMPLE_EVERY_S = 0.25

_X = np.linspace(0.0, 1.0, 40)
_A = np.eye(30) * 4.0 + np.random.default_rng(0).random((30, 30))
_LU = scipy.linalg.lu_factor(_A)


class _Residual:
    def __init__(self):
        self.a = np.ones(12)
        self.b = 2.0

    def __call__(self, x):
        return self.a * x[:12] - self.b * np.tanh(x[12:24])


def kernel_s() -> float:
    """Run the calibration kernel once; return its wall time [s]."""
    t = perf_counter()
    d: dict[int, float] = {}
    for i in range(30000):
        d[i & 255] = d.get(i & 255, 0.0) + i * 0.5
    x = _X
    for _ in range(375):
        y = np.sin(x) * x + np.cos(x)
        y @ y
        np.concatenate([y, x])[3:20].sum()
    for _ in range(75):
        scipy.linalg.lu_solve(_LU, x[:30])
    f = _Residual()
    x = x[:30]
    jac = np.empty((12, 30))
    for _ in range(25):
        f0 = f(x)
        for j in range(30):
            xp = x.copy()
            xp[j] += 1e-7
            jac[:, j] = (f(xp) - f0) * 1e7
    return perf_counter() - t


class Clock:
    """Times measured segments and the host speed during each of them.

        clock.start()
        ...                     # first part of the segment
        a = clock.lap()         # its time, kernel samples taken out
        ...
        b = clock.lap()
        f = clock.stop()        # a * f, b * f: seconds at reference speed

    `stop()` returns REFERENCE_S over the mean kernel time of the samples
    taken just before, during and just after the segment.  With
    `sample=False` the segment is only bracketed, so nothing runs inside
    it (for traced repetitions, whose spans must hold program time only).
    """

    def __init__(self):
        kernel_s()  # warm-up
        self._samples = [kernel_s()]
        self._active = False
        self._in_kernel = 0.0
        self.factors: list[float] = []

    def _tick(self, signum, frame) -> None:
        if self._active:
            t = perf_counter()
            self._samples.append(kernel_s())
            self._in_kernel += perf_counter() - t

    def start(self, sample: bool = True) -> None:
        self._in_kernel = 0.0
        self._mark, self._mark_kernel = perf_counter(), 0.0
        if sample:
            self._active = True
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def lap(self) -> float:
        """Time since start() or the last lap(), kernel samples excluded."""
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now, in_kernel = perf_counter(), self._in_kernel
            lap = (now - self._mark) - (in_kernel - self._mark_kernel)
            self._mark, self._mark_kernel = now, in_kernel
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return lap

    def stop(self) -> float:
        if self._active:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        after = kernel_s()
        f = REFERENCE_S / statistics.fmean(self._samples + [after])
        self._samples = [after]
        self.factors.append(f)
        return f
