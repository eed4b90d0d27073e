"""Reference kernel that measures how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine. Its speed changes
by 30-50% in spells of a second to minutes, as other tenants come and go,
and CPU time rises with wall time, so no time is visibly stolen. Every
buildiff call slows down with it, and so does this kernel, which does a
fixed amount of work that never touches buildiff: a Python loop, a chain of
small numpy ops, BLAS matmuls, a sort and an exp over arrays larger than the
L2 cache. Each timed call is bracketed by runs of the kernel, and its wall
time is scaled by REF_S over the mean kernel time before and after it: the
time the call would take on a host where the kernel takes REF_S. A change to
buildiff moves the scaled time as it moves the wall time; a change in host
speed moves both the call and the kernel, and cancels as far as they slow
alike. BLAS must run on one thread, as the kernel does.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the 2-vCPU host the benchmark was written on, when its
# neighbours were quiet (single-threaded BLAS). It only sets the scale.
REF_S = 0.0135


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((2, 64))
        self.square = rng.standard_normal((256, 256))
        self.long = rng.standard_normal(1 << 19)
        self.tall = rng.standard_normal((4096, 64))
        self.wide = rng.standard_normal((64, 256))

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        s = 0
        for i in range(30000):
            s += i * i
        x, u = self.small
        for _ in range(300):
            x = np.tanh(x * 0.5 + u)
        for _ in range(3):
            self.square @ self.square
        np.sort(self.long)
        np.exp(self.tall) @ self.wide
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor from wall time to time at the reference speed, for a call
        between two kernel runs."""
        return REF_S / ((before + after) / 2.0)
