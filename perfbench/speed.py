"""How fast this machine runs Python right now, from a fixed kernel.

On a shared virtual machine the same code can run 1.5-2x slower for
spells of seconds to minutes, because the host is busy. The benchmark times
its work in blocks and times this kernel next to each block. It reports the
work's time rescaled to the kernel's reference speed:

    reference seconds = measured seconds * REF_S / kernel seconds per rep

That ratio cancels the machine's speed. The program's own cost stays in it:
a change that makes the program do less work lowers it the same way it
lowers wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Seconds per kernel rep at reference speed, a round figure near what the
# 2-vCPU Xeon KVM guest the benchmark was defined on takes (0.8-1.3 ms).
# It fixes the unit only; comparisons between runs do not depend on it.
REF_S = 1.0e-3


_ROWS = [(float(i), 0.5 * i, 1.0, 2.0, 3.0, 4.0) for i in range(1000)]


def kernel(reps: int = 5) -> float:
    """Seconds per rep of a fixed mix like the package's own: interpreter
    arithmetic, a walk over many small Python objects, small numpy calls."""
    t0 = time.perf_counter()
    for _ in range(reps):
        s = 0
        for j in range(6_000):
            s += j * j % 7
        totals = [0.0] * 6
        for row in _ROWS:
            for k in range(6):
                totals[k] += 1.5 * row[k]
        a = np.arange(64.0)
        for _ in range(60):
            a = np.sqrt(a + 1.0)
    return (time.perf_counter() - t0) / reps


class Bracket:
    """Kernel runs between consecutive blocks of work.

    ``close()`` ends a block: it runs the kernel again and returns the
    kernel seconds per rep around the block (mean of before and after).
    Ten reps, about 10 ms, keep the kernel's own noise small.
    """

    def __init__(self):
        self._last = kernel(reps=10)

    def close(self) -> float:
        k = kernel(reps=10)
        around = (self._last + k) / 2.0
        self._last = k
        return around


class Sampler:
    """Runs the kernel from a timer signal every ``period_s`` during one long
    call, in the thread and on the CPU that runs the call.  The call loses
    one kernel rep per period to it, about 2-3%.
    """

    def __init__(self, period_s: float = 0.05):
        self.period_s = period_s
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(kernel(reps=1))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def per_rep(self) -> float:
        """Mean kernel seconds per rep over the call."""
        if not self.samples:
            return kernel()
        return float(np.mean(self.samples))
