"""The host's speed over a run, to take its swings out of the timings.

The benchmark runs on a shared host whose speed is not its own: a fixed
pure-Python loop there takes anywhere from 30 to 58 ms from one second
to the next, with process CPU time swinging alike (so it is the
core's speed, not scheduling), and the level drifts over minutes. Runs
of the same code then spread by a quarter or more, whatever their
length.

:class:`SpeedSampler` measures that speed while the program runs: a
thread wakes every :data:`INTERVAL` seconds and times one pass of a
fixed pure-Python kernel (:func:`kernel`, about 0.5 ms; it is the
benchmark's own code, so no change to the program can speed it up).
It times the pass on its own thread's CPU clock, so time spent waiting
for a CPU the pool workers hold, or for the GIL, does not count as a
slow host.
:meth:`SpeedSampler.normalize` then scales a span of wall time by
``REFERENCE_S / k``, where ``k`` is the median kernel time sampled
within :data:`WINDOW` seconds of the span: the result is the time the
span would have taken on a host where the kernel takes
:data:`REFERENCE_S`. On the 2-vCPU development VM, normalizing each
request cut the spread of repeated identical requests fivefold in a
noisy minute (IQR/median over rounds: lint_cold 0.31 -> 0.06, wllsms
0.30 -> 0.06).

The sampler thread shares the GIL and the CPU with the program: one
0.5 ms pass per 20 ms takes about 2.5% of the CPU from the requests,
the same share on every run.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

__all__ = ["INTERVAL", "REFERENCE_S", "WINDOW", "SpeedSampler", "kernel"]

#: Seconds between two kernel timings.
INTERVAL = 0.02
#: Seconds around a span whose kernel timings estimate its host speed
#: (the speed changes within a second: of 0.05, 0.1, 0.25, 0.5 and 1 s,
#: the narrowest window left the least spread).
WINDOW = 0.05
#: Kernel time (s) of the reference host the figures are scaled to:
#: the median on the 2-vCPU development VM (Python 3.11.7).
REFERENCE_S = 0.0005
#: Kernel timings a span needs; with fewer in its window it takes the
#: nearest ones.
MIN_SAMPLES = 3


def kernel() -> int:
    """The fixed unit of interpreter work the host speed is timed by:
    dict updates, tuple and string building, a list sort."""
    counts: dict[int, int] = {}
    pairs = []
    total = 0
    for i in range(600):
        key = (i * 7919) & 255
        counts[key] = counts.get(key, 0) + i
        if i % 3:
            pairs.append((key, str(i)))
        total += len(pairs[-1][1]) if pairs else 0
    pairs.sort()
    return total + len(counts)


class SpeedSampler:
    """Kernel timings over a run: ``starts`` (``perf_counter``) and
    ``seconds`` (thread CPU time)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Take one timing now, then keep sampling on a thread."""
        self._time_kernel()
        self._thread = threading.Thread(target=self._sample,
                                        name="perfbench-speed",
                                        daemon=True)
        self._thread.start()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def pin(self, cpus: set[int]) -> None:
        """Run the sampling thread on ``cpus`` only."""
        if self._thread is not None:
            os.sched_setaffinity(self._thread.native_id, cpus)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL):
            self._time_kernel()

    def _time_kernel(self) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        self.seconds.append(time.thread_time() - cpu)
        self.starts.append(start)

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time around the span ``[start, end]``."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        return statistics.median(self.seconds[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """The span's wall time at the reference host speed."""
        return (end - start) * REFERENCE_S / self.kernel_s(start, end)

    def median_kernel_s(self) -> float:
        return statistics.median(self.seconds)
