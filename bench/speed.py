"""Rescale measured times to a reference host speed.

On a shared host the same request can take up to twice as long while
neighbouring tenants are busy, in bursts from milliseconds to minutes
long. CPU time rises with wall time, so the slowdown is in the host, not
in preemption; longer runs and medians do not remove it. The benchmark
therefore times a short fixed kernel a few times between every two
requests, and from a SIGALRM timer every INSIDE_S inside a request, and
scales each request's time, less the kernel timings inside it, by REF_NS
over the mean of the median kernel times just before, inside and just
after it: what the request would have taken on a host where the kernel
takes REF_NS. Timings inside a request follow a burst that starts or
ends in the middle of a long request. The median drops a kernel run
that the host interrupted for milliseconds. The kernel depends on
nothing in dtmpade, so a change to the program cannot move it; the
wall-clock figures are reported alongside.

The kernel is what dominates the program's own hot loops: interpreted
float arithmetic on a five-element state, rebuilt as a small numpy array
every step, as in an RK4 step of the shooting oracle.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

KERNEL_STEPS = 40
REF_NS = 400_000  # kernel time that scaled times refer to, about a quiet 2-vCPU VM's
KERNELS_PER_GAP = 3
INSIDE_S = 0.05  # interval of the kernel timings inside a request
WARMUP_KERNELS = 20


def kernel(steps: int = KERNEL_STEPS) -> float:
    """A fixed amount of small-array work; returns a value so none of it is skipped."""
    state = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    for _ in range(steps):
        f, fp, fpp, th, thp = state
        d = np.array([fp, fpp, 2.0 * fp * fp - th - 3.0 * f * fpp, thp, -3.0 * f * thp])
        state = state + 0.01 * d
        if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > 1e6:
            break
    return float(state.sum())


def scale(*kernel_ns: int) -> float:
    """Factor that takes a time measured among these kernel timings to REF_NS speed."""
    return REF_NS * len(kernel_ns) / sum(kernel_ns)


def uninterrupted(start: int, ns: int, interrupts) -> tuple[int, list[int]]:
    """A request's ns without the kernel timings that interrupted it, and
    their kernel times. ``interrupts`` holds (start, end, kernel ns) of
    every timing made while the timer was armed; only the part of each
    that falls inside the request's own interval counts.
    """
    end = start + ns
    stolen = sum(max(0, min(e, end) - max(s, start)) for s, e, _ in interrupts)
    return ns - stolen, [k for s, e, k in interrupts if start <= s and e <= end]


class SpeedProbe:
    """Times the kernel and keeps every timing of the run."""

    def __init__(self):
        self.ns: list[int] = []
        for _ in range(WARMUP_KERNELS):
            kernel()

    def time(self) -> int:
        """Median kernel time over KERNELS_PER_GAP runs, in ns."""
        runs = []
        for _ in range(KERNELS_PER_GAP):
            t0 = time.perf_counter_ns()
            kernel()
            runs.append(time.perf_counter_ns() - t0)
        self.ns += runs
        return statistics.median_low(runs)

    @contextlib.contextmanager
    def inside(self):
        """Time the kernel every INSIDE_S while the block runs; yields the
        list that receives (start, end, kernel ns) of each timing."""
        interrupts = []

        def on_alarm(signum, frame):
            t0 = time.perf_counter_ns()
            ns = self.time()
            interrupts.append((t0, time.perf_counter_ns(), ns))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INSIDE_S, INSIDE_S)
        try:
            yield interrupts
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def summary(self) -> dict:
        ms = [ns / 1e6 for ns in self.ns]
        return {"kernel_samples": len(ms), "kernel_ms_median": statistics.median(ms),
                "kernel_ms_min": min(ms), "kernel_ms_max": max(ms),
                "kernel_ref_ms": REF_NS / 1e6}
