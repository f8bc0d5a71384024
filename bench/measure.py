"""Timing and tracing for the benchmark; imports nothing from satforge.

Timings are in reference seconds.  Each timed interval is multiplied by
REF_S / r, where r is the mean time of a fixed pure-Python reference loop
run just before and just after the interval in this process, and REF_S is
that loop's time on an idle host.  A shared 2-core virtual machine changes
its speed by up to 1.5x every ten seconds or so as other tenants come and
go; there raw seconds spread 15-40 % between runs, reference seconds a
few per cent.
"""

from __future__ import annotations

import random
import resource
import time
from contextlib import contextmanager

# The reference loop: breadth-first search over a fixed random graph plus
# small-integer bit arithmetic, the two kinds of work satforge does most.
_REF_RNG = random.Random(20261017)
_REF_ADJ = [[_REF_RNG.randrange(300) for _ in range(4)] for _ in range(300)]
REF_S = 0.0075  # seconds the loop takes on an idle 2-core host


def reference() -> float:
    start = time.perf_counter()
    for src in range(0, 300, 10):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in _REF_ADJ[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
    mask = 0x5555
    for i in range(40000):
        mask = ((mask << 1) | (mask >> 13)) & 0x7FFF
        (mask & i).bit_count()
    return time.perf_counter() - start


class Tracer:
    """Spans (id, name, start, end, parent, attributes) kept in memory.

    A `scaled` tracer brackets every span with reference loops and stores
    the factor that turns its raw seconds into reference seconds.
    """

    def __init__(self, scaled: bool = False):
        self.spans: list[dict] = []
        self.scaled = scaled
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": self._next, "name": name,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self._next += 1
        self._stack.append(rec["id"])
        ref = reference() if self.scaled else 0.0
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.scaled:
                rec["scale"] = REF_S / ((ref + reference()) / 2)
            self._stack.pop()
            self.spans.append(rec)


def cpu_seconds() -> float:
    usage = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def peak_rss_mib() -> float:
    usage = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return max(u.ru_maxrss for u in usage) / 1024.0


class Clock:
    """Sums of wall and CPU seconds over intervals, raw and in reference
    seconds, each interval bracketed by reference loops."""

    def __init__(self):
        self.wall = self.cpu = self.raw_wall = self.raw_cpu = 0.0
        self._ref = reference()

    @contextmanager
    def interval(self):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        yield
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        ref = reference()
        scale = REF_S / ((self._ref + ref) / 2)
        self._ref = ref
        self.wall += wall * scale
        self.cpu += cpu * scale
        self.raw_wall += wall
        self.raw_cpu += cpu
