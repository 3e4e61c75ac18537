"""Host-speed normalisation of the benchmark's timings.

On a shared host the speed of one core drifts with its neighbours' load,
by up to 2x within a few seconds, so raw host seconds of identical work
spread too widely to compare two commits.  While a :class:`RefClock` is
running, a SIGALRM handler times a fixed pure-Python reference kernel eight
times a second.  The kernel shares no code with the library, so a change to
the library cannot change it.  Between two samples the host's speed is
taken as the mean of theirs, and an interval's host seconds (less the time
spent in the kernel) are rescaled by ``REFERENCE_S`` over that speed: the
result, in reference seconds, is the time the work would take on a host
where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter
from typing import List, Tuple

REFERENCE_S = 0.0016  # about the kernel's time on an idle core of a 2-core Xeon VM
INTERVAL_S = 0.125


class _Node:
    __slots__ = ("vid", "nbrs", "best")

    def __init__(self, vid: int, n: int):
        self.vid = vid
        self.nbrs = ((vid + 1) % n, (vid + 7) % n, (vid * 5 + 3) % n)
        self.best = (vid * 7919) % 1009


def kernel() -> int:
    """Max-flooding over a fixed 400-vertex graph: the dict, list, tuple and
    attribute traffic typical of the simulator, in code of its own."""
    n = 400
    nodes = [_Node(v, n) for v in range(n)]
    inbox: dict = {}
    for _ in range(5):
        nxt: dict = {}
        for nd in nodes:
            best = nd.best
            for _sender, b in sorted(inbox.get(nd.vid, ())):
                if b > best:
                    best = b
            nd.best = best
            for u in nd.nbrs:
                nxt.setdefault(u, []).append((nd.vid, best))
        inbox = nxt
    return sum(nd.best for nd in nodes)


class RefClock:
    """Context manager sampling the host's speed while it is active."""

    def __init__(self):
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._kernel_s: List[float] = []
        self._previous = None

    def _tick(self, _signum=None, _frame=None) -> None:
        # The kernel leaves no cycles; with the collector on, its allocations
        # would trigger collections whose cost depends on the library's heap.
        # Its first run refills the caches that the library's work evicted.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            kernel()
            t2 = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self._starts.append(t0)
        self._ends.append(t2)
        self._kernel_s.append(min(t1 - t0, t2 - t1))

    def __enter__(self) -> "RefClock":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def measure(self, t0: float, t1: float) -> Tuple[float, float]:
        """(host seconds, reference seconds) of the interval [t0, t1], which
        must lie between the first and the last sample.  Between two samples
        the host's speed is taken as the mean of theirs; time inside the
        samples is left out."""
        j = max(bisect.bisect_right(self._ends, t0) - 1, 0)
        host = ref = 0.0
        while j + 1 < len(self._starts) and self._ends[j] < t1:
            lo = max(t0, self._ends[j])
            hi = min(t1, self._starts[j + 1])
            if hi > lo:
                host += hi - lo
                ref += (hi - lo) * 2 * REFERENCE_S / (self._kernel_s[j] + self._kernel_s[j + 1])
            j += 1
        return host, ref
