"""Machine-speed calibration for the timing metrics.

On a shared host the same work can take twice as long from one second to
the next, with CPU time tracking wall time, so neither longer runs nor CPU
time remove the drift. A fixed unit of work of the same two kinds as the
library's slows down by nearly the same factor as the library: numpy calls
on 9x9 matrices (a two-qutrit channel applied as a sum over Kronecker
products, a partial-transpose spectrum, a correlation matrix's singular
values) and interpreter-bound code (small Kraus sets built and checked for
completeness). The two parts slow down differently from each other, and
their sum tracks the library better than either. The unit is written out
here and imports nothing from qutritcorr or the checker's reference, so a
fix to either leaves it alone.

While a phase runs, a SIGALRM handler times one unit every PERIOD_S seconds,
in the middle of whatever library call is running. ``SpeedClock.normalised``
turns any wall-clock interval into the time it would take at nominal speed
(one unit in NOMINAL_UNIT_S seconds), with the time spent in the handler
left out. Each unit time is replaced by the median of SMOOTH neighbouring
samples first, so a unit that happened to be preempted does not count as a
slow machine.

The unit is fixed; editing it changes every normalised time and needs a
fresh baseline.
"""

from __future__ import annotations

import math
import signal
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

NOMINAL_UNIT_S = 0.0012  # unit time that defines the nominal machine speed
PERIOD_S = 0.05          # interval between two speed samples
SMOOTH = 5               # samples in the running median of unit times

# the nine qutrit Weyl operators X^a Z^b
_X = np.roll(np.eye(3), 1, axis=0)
_Z = np.diag(np.exp(2j * np.pi / 3 * np.arange(3)))
_WEYL = np.array([np.linalg.matrix_power(_X, a) @ np.linalg.matrix_power(_Z, b)
                  for a in range(3) for b in range(3)]) / 3.0
_I3 = np.eye(3)
_X2 = _X @ _X


def _unit_state() -> np.ndarray:
    rng = np.random.default_rng(0)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = g @ g.conj().T
    return m / m.trace().real


class SpeedClock:
    """Samples the machine's speed from a timer signal while ``running()``."""

    def __init__(self):
        self.state = _unit_state()
        self.starts = array("d")
        self.ends = array("d")

    def unit(self) -> float:
        t0 = perf_counter()
        rho = np.zeros((9, 9), dtype=complex)
        for a in _WEYL[:5]:
            for b in _WEYL[:5]:
                k = np.kron(a, b)
                rho += k @ self.state @ k.conj().T
        r4 = rho.reshape(3, 3, 3, 3)
        np.linalg.eigvalsh(r4.transpose(2, 1, 0, 3).reshape(9, 9))
        corr = np.einsum("abcd,kca,ldb->kl", r4, _WEYL, _WEYL).real
        np.linalg.svd(corr, compute_uv=False)
        for q in range(55):
            g = 1.0 - math.exp(-0.01 * q)
            total = np.zeros((3, 3))
            for k in (math.sqrt(1.0 - g) * _I3, math.sqrt(g / 3.0) * _X,
                      math.sqrt(g / 3.0) * _X2):
                total = total + k.T @ k
            np.abs(total - _I3).max()
        return perf_counter() - t0

    def slowdown(self, units: int = 5) -> float:
        """Slowdown right now, from the median of a few units; for intervals
        the timer cannot sample because the work runs in another process."""
        return float(np.median([self.unit() for _ in range(units)])) / NOMINAL_UNIT_S

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        self.unit()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def normalised(self, a, b) -> np.ndarray:
        """Nominal-speed durations of the intervals [a_i, b_i], which must lie
        between the first and last sample. Between two samples the slowdown
        is the mean of their smoothed unit times over NOMINAL_UNIT_S; time
        inside a sample counts for nothing."""
        s = np.frombuffer(self.starts, dtype=float)
        e = np.frombuffer(self.ends, dtype=float)
        gap = s[1:] - e[:-1]
        unit = np.median(sliding_window_view(np.pad(e - s, SMOOTH // 2, mode="edge"), SMOOTH),
                         axis=1)
        slowdown = (unit[:-1] + unit[1:]) / (2.0 * NOMINAL_UNIT_S)
        cum = np.concatenate(([0.0], np.cumsum(gap / slowdown)))

        def at(t):
            t = np.asarray(t, dtype=float)
            k = np.clip(np.searchsorted(e, t, side="right") - 1, 0, len(gap) - 1)
            return cum[k] + np.clip(t - e[k], 0.0, gap[k]) / slowdown[k]

        return at(b) - at(a)
