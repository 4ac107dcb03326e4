"""Speed probe: how fast the CPU ran grinv-like code during a pass.

On the shared 2-vCPU host this benchmark was built on, the same code
switches within fractions of a second between a fast state and a slow
one that takes up to 2x longer, and the share of slow time drifts over
minutes: raw medians of runs a few minutes apart differ by up to 1.5x.
A SIGPROF timer interrupts each untraced pass every 10 ms of CPU time,
and the handler times a fixed micro-kernel.  The kernel's mean time over
the pass measures the speed the pass actually ran at.

End-to-end times are reported scaled to ``REFERENCE_S``, the kernel's
time in the fast state: seconds at the reference speed.  The handler
costs about 0.5% of a pass, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 30e-6
INTERVAL_S = 0.01
_M = np.arange(16, dtype=np.int64).reshape(4, 4)
_T = list(range(64))


def kernel() -> int:
    """List reads, integer arithmetic and one tiny matrix product, like grinv's
    inner loops.  Its data stays in L1, so its speed does not depend on where
    the process's memory happens to lie, and it allocates no object the cyclic
    garbage collector tracks, so a sample never pays for collecting the pass's
    own objects.  Never change it: scaled times of two commits compare only
    under one kernel."""
    acc = 0
    for i in range(300):
        acc += _T[(i * 7) % 64] * (i % 11)
    return acc + int(((_M @ _M) % 3)[0, 0])


class SpeedProbe:
    """Context manager sampling the kernel's time while the body runs."""

    def __init__(self):
        self.samples: list[float] = []
        kernel()  # keep first-call costs out of the samples

    def _sample(self, signum, frame):
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        while len(self.samples) < 5:  # a body too short to be sampled
            self._sample(None, None)
        return REFERENCE_S / statistics.mean(self.samples)
