"""A fixed yardstick for the host's speed, run in slices between the
workload's own bytecodes.

The benchmark's host is a few cores of a shared machine.  Its speed
drifts by up to 2x between runs a minute apart, and by tens of percent
within a second, so raw times of the same code spread too widely across
runs to gate a change on.  The yardstick does the same kind of work as
the workloads and never changes with the program under test.  While a
repetition runs, a SIGPROF timer interrupts it every `every_s` CPU
seconds and runs one short slice of the yardstick in the main thread.
Yardstick and workload thus see the host at the same moments, and the
workload's CPU time divided by the mean CPU time of a slice is a property
of the program rather than of the host's load.

The yardstick is a plain-numpy Barzilai-Borwein loop on a quadratic
whose Hessian is Q diag(v) Q' with Q three Householder reflections, the
same shape of work as the package's raw loop, restarted every RESTART
iterations so that every slice does the same work.  It shares no code
with stlsbb, so no change to the package moves it.

Times are thread CPU times: while a process-wide CPU timer is armed,
Linux updates the process CPU clock only at scheduler ticks, while the
thread clock stays exact.  The workloads run in the main thread with
BLAS pinned to one thread, so its CPU time is all of theirs.
"""

import signal
import time
from dataclasses import dataclass

import numpy as np

RESTART = 200

_active = None  # the Interleaved context in force, if any


class Yardstick:
    """Fixed BB work at dimension n, continued one slice at a time."""

    def __init__(self, n):
        rng = np.random.default_rng(20221212)
        self.ws = []
        for _ in range(3):
            w = rng.standard_normal(n)
            self.ws.append(w / np.linalg.norm(w))
        self.v = np.geomspace(1.0, 1e4, n)
        self.b = rng.standard_normal(n)
        self.restart()

    def _apply(self, x):
        w1, w2, w3 = self.ws
        u = x - (2.0 * (w3 @ x)) * w3
        u -= (2.0 * (w2 @ u)) * w2
        u -= (2.0 * (w1 @ u)) * w1
        u *= self.v
        u -= (2.0 * (w1 @ u)) * w1
        u -= (2.0 * (w2 @ u)) * w2
        u -= (2.0 * (w3 @ u)) * w3
        return u

    def restart(self):
        x = np.zeros_like(self.b)
        g = self._apply(x) - self.b
        self._state = (x, g, 1.0 / float(g @ g) ** 0.5, 0)

    def slice(self, iterations):
        """Continue the loop for `iterations` iterations; returns the
        squared gradient norm reached."""
        x, g, alpha, k = self._state
        for _ in range(iterations):
            if k == RESTART:
                self.restart()
                x, g, alpha, k = self._state
            s = -alpha * g
            x = x + s
            g_new = self._apply(x) - self.b
            y = g_new - g
            sy = float(s @ y)
            alpha = float(s @ s) / sy if sy > 0.0 else 1.0
            g = g_new
            k += 1
        self._state = (x, g, alpha, k)
        return float(g @ g)


@dataclass(frozen=True)
class YardstickSpec:
    """A yardstick at dimension n, slice_iterations per slice, a slice
    every every_s CPU seconds; ref_slice_s is the CPU time of a slice on
    the host that norm_cpu_s is expressed in."""

    n: int
    slice_iterations: int
    every_s: float
    ref_slice_s: float


@dataclass(frozen=True)
class Reading:
    """Clocks at one instant: wall and thread CPU seconds, and the wall
    and CPU seconds and count of the yardstick slices run so far."""

    wall: float
    cpu: float
    slice_wall: float = 0.0
    slice_cpu: float = 0.0
    slices: int = 0


@dataclass(frozen=True)
class Timing:
    """What happened between two readings, with the slices taken out of
    the workload's wall and CPU seconds."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    slice_cpu_s: float = 0.0
    slices: int = 0

    def __add__(self, other):
        return Timing(self.wall_s + other.wall_s, self.cpu_s + other.cpu_s,
                      self.slice_cpu_s + other.slice_cpu_s, self.slices + other.slices)

    def norm_cpu_s(self, ref_slice_s):
        """The workload's CPU seconds rescaled to a host on which one
        slice takes ref_slice_s; None when no slice ran."""
        if not self.slices:
            return None
        return self.cpu_s * ref_slice_s * self.slices / self.slice_cpu_s


def reading():
    active = _active
    if active is None:
        return Reading(time.perf_counter(), time.thread_time())
    while True:  # read again if a slice ran while the clocks were read
        slices = active.slices
        now = Reading(time.perf_counter(), time.thread_time(),
                      active.wall_s, active.cpu_s, slices)
        if active.slices == slices:
            return now


def elapsed(start, end):
    slice_wall = end.slice_wall - start.slice_wall
    slice_cpu = end.slice_cpu - start.slice_cpu
    return Timing(end.wall - start.wall - slice_wall, end.cpu - start.cpu - slice_cpu,
                  slice_cpu, end.slices - start.slices)


class Interleaved:
    """Runs a slice of the yardstick every spec.every_s CPU seconds of the
    process while the context is open; reusable, never nested."""

    def __init__(self, spec):
        self.yardstick = Yardstick(spec.n)
        self.slice_iterations = spec.slice_iterations
        self.every_s = spec.every_s
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.slices = 0

    def _on_prof(self, signum, frame):
        w0, c0 = time.perf_counter(), time.thread_time()
        self.yardstick.slice(self.slice_iterations)
        self.cpu_s += time.thread_time() - c0
        self.wall_s += time.perf_counter() - w0
        self.slices += 1

    def __enter__(self):
        global _active
        if _active is not None:
            raise RuntimeError("Interleaved contexts do not nest")
        self.yardstick.restart()
        self._previous = signal.signal(signal.SIGPROF, self._on_prof)
        _active = self
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        _active = None
        return False
