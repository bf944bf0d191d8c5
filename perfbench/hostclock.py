"""Host-speed-normalized time for one benchmark process.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over seconds to minutes as other tenants load it.  A plain
timing then measures the neighbours as much as the program.

:class:`HostClock` interleaves a fixed probe with the program: every
``PERIOD_S`` of wall time a ``SIGALRM`` handler runs :func:`probe` (under
a millisecond of dict, attribute and method-call work, the kind of work
the simulator does) and records how long it took.  Run back to back in
one process, the probe and the program slow down together, so the time
the program spent between two probes, scaled by ``REFERENCE_PROBE_S``
over the probe's duration, is the time it would have taken at the
reference speed.  :meth:`HostClock.normalized` sums that over an
interval; time spent in the probes themselves is left out.

On a 2-vCPU 2.1 GHz Xeon VM the spread (IQR over median) of the run
medians of the three workloads' raw times was 5-53% between runs of the
same code, and that of the normalized times 1-6%.  Of the probe kernels
tried (dict only, this dict-and-objects mix on 4096 or 2^17 entries,
small NumPy array ops, and their mixes), this one tracked the workloads
best.

The probes cost 2-5% of the program's time, the same on every commit.
Nothing in the program is changed: the probe runs from the benchmark's
own signal handler, and ``siginterrupt`` makes the kernel restart any
system call it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Dict, List, Tuple

#: Wall time between probes.
PERIOD_S = 0.025
#: Rounds of the probe kernel per probe.
PROBE_ROUNDS = 1_000
#: Duration of one probe, between the program's work, on a 2-vCPU 2.1 GHz
#: Xeon VM in its fast phases; a normalized time is the time the work
#: would take at that speed.
REFERENCE_PROBE_S = 0.00064


class _Node:
    __slots__ = ("value", "link")

    def __init__(self, value: int) -> None:
        self.value = value
        self.link: "_Node" = self

    def step(self, x: int) -> "_Node":
        self.value = (self.value + x) & 0xFFFF
        return self.link


def probe(table: Dict[int, int], nodes: List[_Node],
          rounds: int = PROBE_ROUNDS) -> int:
    """Fixed work: an LCG driving lookups and updates in ``table``, then
    a walk over the linked ``nodes`` through method calls and attribute
    updates."""
    x = 12345
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 4095
        table[key] = (table[key] + x) & 0xFFFF
    node = nodes[x & 4095]
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = node.step(x)
    return x


class HostClock:
    """Periodic probes on ``time.monotonic()``; see the module docstring."""

    def __init__(self) -> None:
        #: (start, end) of every probe, in order.
        self.probes: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._durations: List[float] = []
        # The probe's working set: 4096 dict entries and 4096 objects
        # linked in a fixed pseudo-random order.
        self._table = {key: 0 for key in range(4096)}
        self._nodes = [_Node(key) for key in range(4096)]
        for index, node in enumerate(self._nodes):
            node.link = self._nodes[(index * 2654435761 + 1) & 4095]

    def _tick(self, signum, frame) -> None:
        started = time.monotonic()
        probe(self._table, self._nodes)
        self.probes.append((started, time.monotonic()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._starts = [start for start, _ in self.probes]
        # Each probe's duration as the median of it and its neighbours,
        # so a probe hit by an interrupt does not skew its interval.
        raw = [end - start for start, end in self.probes]
        self._durations = [statistics.median(raw[max(0, i - 1):i + 2])
                           for i in range(len(raw))]

    def normalized(self, begin: float, end: float) -> float:
        """Seconds of ``[begin, end]`` outside the probes, each gap scaled
        to the reference speed by the probe that ends it (the last gap by
        the last probe).  Call after :meth:`stop`."""
        if not self.probes:
            return end - begin
        total = 0.0
        gap_start = float("-inf")
        first = max(0, bisect.bisect_left(self._starts, begin) - 1)
        for index in range(first, len(self.probes) + 1):
            if index < len(self.probes):
                gap_end, next_start = self.probes[index]
                duration = self._durations[index]
            else:
                gap_end, next_start = float("inf"), float("inf")
                duration = self._durations[-1]
            overlap = min(gap_end, end) - max(gap_start, begin)
            if overlap > 0:
                total += overlap * REFERENCE_PROBE_S / duration
            if gap_end >= end:
                break
            gap_start = next_start
        return total

    def probe_seconds(self, begin: float, end: float) -> float:
        """Wall seconds of ``[begin, end]`` spent in probes."""
        return sum(max(0.0, min(stop, end) - max(start, begin))
                   for start, stop in self.probes)
