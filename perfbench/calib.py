"""CPU seconds on a reference host: a clock that corrects for host speed.

The benchmark runs on a few cores of a shared host whose speed per
instruction swings by up to 1.8x within seconds, as other tenants load the
shared caches and cores, so wall time and even CPU time of the same work
differ that much from run to run. Time the host takes away outright
(another process holding the core, the hypervisor stealing it) is not CPU
time of this process, so CPU time already leaves it out. The rest, a core
that does less per second, is measured here: while a run is measured, a
wall-clock interval timer interrupts the process every :data:`EVERY_S`
and times one pass of a fixed kernel of interpreter and small-array
numpy work, the mix the program spends its time in. Every CPU time the
benchmark gates is scaled by ``KERNEL_REF_S / mean(kernel CPU time)`` of
the passes timed during it (and within :data:`PAD_S` of it), and the
kernel's own CPU time is taken out of what is measured. ``run.py`` pins
the benchmark and the service it starts to one CPU, so the passes run on
the core the measured work runs on.

The kernel is the benchmark's own code and never calls the program, so a
change to the program moves the scaled figures by exactly as much as it
moves the CPU time, while a slow host moves the kernel and the work
alike and cancels out. Parallel speed-ups do not show in CPU time; the
wall-clock figures are printed beside the gated ones for that.
"""

from __future__ import annotations

import bisect
import resource
import signal
import time

import numpy as np

__all__ = ["HostClock", "KERNEL_REF_S", "EVERY_S", "PAD_S", "children_cpu_s",
           "kernel"]

#: CPU seconds one kernel pass takes on the reference host (a quiet core
#: of the 2-CPU x86-64 host the benchmark was written on).
KERNEL_REF_S = 0.0006
#: Wall seconds between kernel passes while a :class:`HostClock` runs.
EVERY_S = 0.025
#: Wall seconds either side of an operation whose passes scale it.
PAD_S = 0.25

_rng = np.random.default_rng(0)
_B = _rng.random((60, 12))
_Y = _rng.random(60)


def kernel() -> None:
    """A fixed amount of interpreter and small-array numpy work."""
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(6):
        np.linalg.lstsq(_B, _Y, rcond=None)


def children_cpu_s() -> float:
    """User plus system CPU seconds of every child this process waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class HostClock:
    """Kernel passes timed through a run, and the scale they give.

    Use as a context manager around the measured part of a run; the
    interval timer and the previous SIGALRM handler are restored on exit.
    An operation's CPU time is scaled by the kernel passes timed within
    :data:`PAD_S` of it, since the host's speed changes within seconds.
    """

    def __init__(self) -> None:
        #: (wall time the pass ended, its CPU seconds), in time order.
        self.samples: list[tuple[float, float]] = []
        self._spent = 0.0
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum: int, frame: object) -> None:
        c0 = time.process_time()
        kernel()
        spent = time.process_time() - c0
        self.samples.append((time.perf_counter(), spent))
        self._spent += spent

    def cpu(self) -> float:
        """CPU seconds of this process so far, less what the kernel used."""
        # Blocked so that no pass lands between the two reads.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.process_time() - self._spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def kernel_s(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Mean CPU seconds of the passes within PAD_S of wall times [t0, t1]."""
        lo = bisect.bisect_left(self.samples, (t0 - PAD_S,))
        hi = bisect.bisect_right(self.samples, (t1 + PAD_S, float("inf")))
        window = [cpu for _, cpu in self.samples[lo:hi]]
        if not window:  # no pass that near: the next one, else the last
            near = self.samples[min(lo, len(self.samples) - 1):][:1]
            window = [cpu for _, cpu in near] or [KERNEL_REF_S]
        return sum(window) / len(window)

    def ref(self, cpu_s: float, t0: float, t1: float) -> float:
        """``cpu_s`` spent over wall times [t0, t1], in reference seconds."""
        return cpu_s * KERNEL_REF_S / self.kernel_s(t0, t1)
