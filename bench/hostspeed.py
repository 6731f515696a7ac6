"""Host-speed sampler: corrects pass times for the speed of a shared host.

The benchmark runs on a few cores of a shared machine whose speed drifts
by up to about 1.5x for stretches of seconds to minutes (other tenants
compete for the cores and caches).  The same pass of the same code then
takes 8 s in one run and 12 s in the next, and a fixed program-independent
loop slows down by nearly the same factor at the same moments, in CPU time
as much as in wall time.

While a `SpeedSampler` is active, a SIGALRM timer interrupts the program
every `PERIOD_S` seconds and times one fixed probe kernel: a theta-type
sum of complex sines and cosines over a small array, and a longer Python
loop of numpy calls on single triangles, the mix of numpy calls and
interpreter work that the stackedmin layers run.  Of the probes tried,
the loop over triangles tracked the passes' slowdowns most closely, so it
takes most of the probe's time.  The probe uses no stackedmin code, so a
change to the program never moves it.  The time spent in the handler is
left out of every interval the sampler measures.

A pass that took `raw` seconds while the probe took `mean_probe` seconds
on average is reported as

    norm = raw * REF_PROBE_S / mean_probe

that is, the time the pass would take on a host where the probe takes
`REF_PROBE_S`.  The probe samples are evenly spaced in time, so their
plain mean weights each stretch of the pass by its length.  A set-up,
which runs in a fresh interpreter, is rescaled the same way by the mean
of probes timed back to back in that interpreter (`probe_mean_s`).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
# probes timed back to back after a set-up; about 0.1 s
SETUP_PROBES = 30
# probe time on the reference host: a 2-vCPU KVM guest on an Intel Xeon
# (Sapphire Rapids, family 6 model 143) in a fast phase, the probe run
# between stretches of the workload as the sampler runs it
REF_PROBE_S = 3.6e-3

_rng = np.random.default_rng(20190816)
_V = (_rng.uniform(-1.5, 1.5, 512) + 1j * _rng.uniform(-0.4, 0.4, 512))
_Q = 0.03 + 0.02j
_TRIS = _rng.standard_normal((64, 3, 3))
_A = _rng.standard_normal((24, 24)) + 24.0 * np.eye(24)
_B = np.ones(24)


def probe_kernel() -> complex:
    """The fixed unit of work whose time measures the host's speed: a theta
    sum over an array of points (the kernel's mix), a loop of numpy calls
    on single triangles (the mesh battery's mix), and one small solve."""
    u0 = np.zeros(_V.shape, dtype=complex)
    u1 = np.zeros(_V.shape, dtype=complex)
    sign = 1.0
    for n in range(8):
        w = (2 * n + 1) * _V
        qf = sign * _Q ** (n * (n + 1))
        u0 += qf * np.sin(w)
        u1 += qf * (2 * n + 1) * np.cos(w)
        sign = -sign
    acc = complex(np.sum(u1 / u0))
    for p in _TRIS:
        nrm = np.cross(p[1] - p[0], p[2] - p[0])
        d = (p - p[0]) @ nrm
        if np.all(d > 0.1) or np.any(p.min(axis=0) > 1.0):
            acc += 1.0
    acc += complex(np.linalg.solve(_A, _B)[0])
    return acc


def probe_mean_s() -> float:
    """Mean time of SETUP_PROBES back-to-back probes, after one untimed
    warm-up."""
    probe_kernel()
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class SpeedSampler:
    """Context manager that samples the probe on a timer.

    `clock()` is a perf_counter that stops while the handler runs, so
    intervals read from it leave the probe out.  `interval(c0, n0)` gives
    the raw seconds and the probe times since the marks `c0 = clock()`
    and `n0 = len(samples)`.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self):
        probe_kernel()  # first call pays numpy's lazy set-up
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def interval(self, c0: float, n0: int):
        return self.clock() - c0, self.samples[n0:]


def normalized(raw_s: float, probes) -> float:
    """Seconds the interval would take on the reference host."""
    if not probes:
        raise ValueError("interval too short for a probe sample")
    return raw_s * REF_PROBE_S / statistics.fmean(probes)
