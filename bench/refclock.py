"""Times in reference seconds: wall time corrected for the machine's speed.

On a shared virtual machine the speed of the CPU a process gets drifts by
tens of percent within seconds to minutes, and process CPU time drifts with
it, so raw timings of identical work spread more than any useful regression
bound.  The benchmark therefore samples the machine's speed while it runs:
a timer signal fires every PERIOD_S seconds and its handler times one
round of a fixed reference kernel, plain interpreter work (tuples, dicts,
integer arithmetic, calls) that never touches reeskit.  The handler runs on
the benchmark's own thread, between the bytecodes of whatever is running,
so the samples see the same slow-downs as the timed code.  A span of wall
time is converted as

    reference seconds = (wall seconds - kernel time inside the span)
                        * REF_ROUND_S / mean kernel round near the span

where "near" is the span widened by WINDOW_S seconds on each side.  The
mean, not the median, is used: a stall that hits a kernel round hits the
timed code in the same proportion.  A reference second is the time the work
takes when the kernel runs at its nominal speed, REF_ROUND_S per round
(about the typical speed of the 2-CPU Xeon virtual machine the benchmark was
written on).  A change to reeskit moves the timed spans and leaves the
kernel alone, so it shows in full.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

REF_ROUND_S = 0.001  # nominal seconds of one kernel round
PERIOD_S = 0.02  # seconds between kernel rounds, about 5% of the run
WINDOW_S = 0.25  # rounds this close to a span give its speed


def kernel_round() -> int:
    """One round of reference work, about 1 ms of interpreter time."""
    seen: dict[tuple, int] = {}
    acc = 0
    for i in range(600):
        a = (i % 7, i % 5, i % 3, i % 11)
        b = tuple(x + y for x, y in zip(a, (1, 2, 3, 4)))
        seen[b] = seen.get(b, 0) + max(b)
        acc += sum(b) & 15
    return acc + len(seen)


class SpeedSampler:
    """Samples the kernel's speed from a timer signal while in a with block,
    and converts wall-clock spans measured with time.perf_counter into
    reference seconds afterwards."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each round's start
        self.rounds: list[float] = []  # each round's wall time
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # garbage collection is held off, so that the program's heap,
        # however large, does not slow the kernel
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel_round()
        self.rounds.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The span [t0, t1] in reference seconds."""
        starts = self.starts
        inside = sum(self.rounds[bisect.bisect_left(starts, t0):
                                 bisect.bisect_left(starts, t1)])
        near = self.rounds[bisect.bisect_left(starts, t0 - WINDOW_S):
                           bisect.bisect_left(starts, t1 + WINDOW_S)]
        mean = statistics.fmean(near or self.rounds)
        return (t1 - t0 - inside) * REF_ROUND_S / mean

    def speed(self) -> float:
        """The machine's mean speed over the run, relative to the nominal."""
        return REF_ROUND_S / statistics.fmean(self.rounds)
