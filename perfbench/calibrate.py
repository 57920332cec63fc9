"""Host-speed probe: keeps a sample on the faster vCPU and restates its
times at a nominal host speed.

Each vCPU of the reference host switches, every few seconds and
independently of the others, between a fast state and states 1.6-2.2x
slower, in CPU time as much as in wall time (see README.md).  A sample of
a few seconds often spans both, so its raw wall time mixes them in an
accidental proportion.

SpeedProbe times a tiny fixed kernel (PROBE_ITERATIONS steps of the same
shape of work as the workloads: Python-level calls on small numpy arrays,
FFTs, reductions, stacking) before the work, every PERIOD_S seconds from
a SIGALRM handler in the sample's own thread, and after the work.  The
kernel touches no expsplit code, and every probe runs it once untimed
before the timed run, so the timed kernel finds its code and data in the
caches whatever the program's work left there; a change to expsplit's
cache or heap footprint therefore does not reach the probe's time.
When a probe reads more than SLOW_FACTOR times the fastest
probe seen so far, the process moves to the next allowed CPU and stays
there if the kernel runs faster there.  Each stretch of work between two
probes is then scaled by NOMINAL_PROBE_S / (probe time at the stretch's
start and end, averaged), and the probes themselves are left out.  That
states the work in seconds at the speed where one probe takes
NOMINAL_PROBE_S.

The pinning holds the sample's thread, and every thread it starts later,
to one vCPU.  The workloads are single-threaded; a change that makes
expsplit multithreaded needs this benchmark revised first.
"""

from __future__ import annotations

import math
import os
import signal
import time

import numpy as np

PERIOD_S = 0.1
PROBE_ITERATIONS = 30
SLOW_FACTOR = 1.25
NOMINAL_PROBE_S = 0.8e-3   # one probe in the fast state of the reference host


def _kernel(iterations: int) -> float:
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for _ in range(iterations):
        y = np.fft.ifft(np.fft.fft(x) * 0.5).real
        acc += float(np.vdot(y, y))
        x = np.stack([y, x]).mean(axis=0) ** 3 + 0.1
    return acc


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel(PROBE_ITERATIONS)
    return time.perf_counter() - t0


class SpeedProbe:
    """Probe marks taken around and during a region of work."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = None
        self.fastest = math.inf
        self.startup_probe = math.nan
        # (begin, end, probe before any move, probe on the CPU kept)
        self.marks = []
        self.moves = 0
        self._previous = None

    def _pin(self, cpu):
        os.sched_setaffinity(0, {cpu})
        self.cpu = cpu

    def _mark(self, signum=None, frame=None):
        begin = time.perf_counter()
        _kernel(PROBE_ITERATIONS)  # warm the caches the work has left cold
        here = _timed_kernel()
        kept = here
        if len(self.cpus) > 1 and here > SLOW_FACTOR * self.fastest:
            old = self.cpu
            self._pin(self.cpus[(self.cpus.index(old) + 1) % len(self.cpus)])
            _kernel(PROBE_ITERATIONS)  # warm the caches of the new CPU
            there = _timed_kernel()
            if there < here:
                kept = there
                self.moves += 1
            else:
                self._pin(old)
        self.fastest = min(self.fastest, here, kept)
        self.marks.append((begin, time.perf_counter(), here, kept))

    def start(self) -> float:
        """Settle on the fastest CPU, start the periodic probe, and return
        the work's start time."""
        _kernel(PROBE_ITERATIONS)  # warm-up where set-up ran
        self.startup_probe = min(_timed_kernel() for _ in range(3))
        best = None
        for cpu in self.cpus:
            self._pin(cpu)
            _kernel(PROBE_ITERATIONS)
            d = min(_timed_kernel() for _ in range(2))
            if best is None or d < best[1]:
                best = (cpu, d)
        self._pin(best[0])
        self.fastest = best[1]
        self._mark()
        self._previous = signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return time.perf_counter()

    def stop(self) -> float:
        """Return the work's end time, stop the periodic probe, probe again."""
        t_end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._mark()
        os.sched_setaffinity(0, self.cpus)
        return t_end

    def nominal_setup(self, seconds: float) -> float:
        """Set-up time at the nominal speed, by the probe taken right after it."""
        return seconds * NOMINAL_PROBE_S / self.startup_probe

    def nominal(self, t_start: float, t_end: float) -> float:
        """Seconds of work in [t_start, t_end] at the nominal speed."""
        total = 0.0
        for (_, e0, _, d0), (b1, _, d1, _) in zip(self.marks, self.marks[1:]):
            lo, hi = max(e0, t_start), min(b1, t_end)
            if hi > lo:
                total += (hi - lo) * NOMINAL_PROBE_S / (0.5 * (d0 + d1))
        return total

    def probe_time(self, t_start: float, t_end: float) -> float:
        """Wall time the probe marks took inside [t_start, t_end]."""
        return sum(min(e, t_end) - max(b, t_start) for b, e, _, _ in self.marks
                   if e > t_start and b < t_end)
