"""Microarchitectural event timeline: a bounded flight recorder.

The cycle ledger answers *how much* a mitigation cost and the leakage
tracer answers *whether* taint escaped; this module records the ordered
sequence of structure-state transitions that produced either number.
Every speculative structure — BTB, RSB, conditional predictor, TLB, the
L1/L2 hierarchy, the store buffer and the MDS fill/store/load-port
buffers — reports structured events (train/evict/flush/hit/miss/
forward/drain) into an :class:`EventTimeline`, each stamped with the
simulated TSC, the privilege mode and the retired-instruction index at
the moment it fired.

Design constraints, mirrored from :mod:`repro.obs.leakage`:

* **Opt-in and cheap when off.**  The timeline is a
  :class:`~repro.obs.observers.StructureHooks` subscriber like the
  leakage tracer: attach it with ``use_observers(timeline)`` or
  ``machine.attach(timeline)``.  A detached machine pays one ``is None``
  test per hook site (enforced by ``benchmarks/bench_obs_overhead.py``);
  with both subscribers attached, the machine fans each slot out to
  both.
* **Bounded.**  Events land in a ring buffer (``collections.deque`` with
  ``maxlen``): once ``capacity`` events are held, each new event evicts
  the oldest and bumps ``dropped``.  Memory is bounded by the ring size
  regardless of run length; pass ``capacity=None`` for the unbounded
  diagnosis mode the fuzz explainer uses.
* **Engine composition.**  Like the leakage tracer, an attached timeline
  routes ``Machine.run`` to the interpreter — batched block-engine
  replay deduplicates LRU touches and collapses MDS residue, so it
  cannot reproduce the per-event stream.  The interpreted fallback is
  bit-identical by the engine's differential contract, so the event
  stream under ``--engine=block`` equals the one under
  ``--engine=interp`` (asserted in the differential grid).
* **Parallel transport.**  Worker timelines ship home through
  ``state()`` / ``merge_state()`` like spans, ledgers and taints.

On top of the recorder sits the **first-divergence differ**
(:func:`first_divergence`): given two timelines it binary-searches
prefix-hash chains to the earliest event where the streams disagree and
returns the surrounding window with structure-state context.  The fuzz
harness's engine-parity oracle uses it to pinpoint the exact faulted
instruction of an injected parity fault, and ``spectresim explain``
renders it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from collections import deque

from .observers import StructureHooks

#: Default ring capacity: enough for a syscall-heavy kernel benchmark
#: window while keeping an attached recorder's memory footprint small.
DEFAULT_CAPACITY = 4096

#: The retired-instruction counter key (mirrors repro.cpu.counters;
#: duplicated here so the obs package never imports the CPU catalog at
#: import time).
RETIRED_COUNTER = "inst_retired.any"

LINE = 64


@dataclass
class TimelineEvent:
    """One structure-state transition.

    ``seq`` is the timeline-local monotonic index (survives ring
    eviction), ``structure``/``action``/``key`` identify the transition
    (``btb.train``, ``cache.miss``, ...), and ``tsc``/``mode``/``instr``
    pin when it happened: simulated TSC, privilege mode, and the number
    of instructions retired when the event fired.
    """

    seq: int
    structure: str
    action: str
    key: str
    tsc: int
    mode: str
    instr: int

    def path(self) -> str:
        return f"{self.structure}.{self.action}"

    def signature(self) -> tuple:
        """Identity for stream comparison: everything but ``seq``."""
        return (self.structure, self.action, self.key, self.tsc,
                self.mode, self.instr)

    def render(self) -> str:
        return (f"tsc={self.tsc:<8} instr={self.instr:<6} "
                f"mode={self.mode:<12} {self.path()} {self.key}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "structure": self.structure,
            "action": self.action,
            "key": self.key,
            "tsc": self.tsc,
            "mode": self.mode,
            "instr": self.instr,
        }


class EventTimeline(StructureHooks):
    """Bounded ring-buffer flight recorder over one machine's structures.

    ``capacity`` bounds held events (``None`` = unbounded, for the
    explainer's exact-replay diagnosis); ``counts`` aggregates every
    event ever filed (never truncated), which is what ships across
    process boundaries via :meth:`state`.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("timeline capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._events: "deque[TimelineEvent]" = deque(maxlen=capacity)
        self.seq = 0
        self.dropped = 0
        #: "structure.action" -> count over all events (never truncated).
        self.counts: Dict[str, int] = {}
        self.cpu_model = "unknown"
        self._machine: Any = None

    # -- wiring ----------------------------------------------------------- #

    def bind_machine(self, machine: Any) -> None:
        """Adopt ``machine`` (called from ``Machine.attach``, which wires
        the structure hooks): stamp events with its clock and mode."""
        self._machine = machine
        self.cpu_model = machine.cpu.key

    # -- internals ---------------------------------------------------------- #

    def _file(self, structure: str, action: str, key: str) -> None:
        machine = self._machine
        if machine is None:
            tsc, mode, instr = 0, "?", 0
        else:
            counters = machine.counters
            tsc = counters.tsc
            mode = machine.mode.value
            instr = counters.events.get(RETIRED_COUNTER, 0)
        events = self._events
        if events.maxlen is not None and len(events) == events.maxlen:
            self.dropped += 1
        events.append(TimelineEvent(self.seq, structure, action, key,
                                    tsc, mode, instr))
        self.seq += 1
        path = f"{structure}.{action}"
        self.counts[path] = self.counts.get(path, 0) + 1

    # -- store buffer observer ---------------------------------------------- #

    def sb_push(self, address: int, value: int) -> None:
        self._file("store_buffer", "push", f"line={address // LINE:#x}")

    def sb_drain(self) -> None:
        self._file("store_buffer", "drain", "all")

    def sb_bypass(self, address: int, possible: bool) -> None:
        self._file("store_buffer", "bypass",
                   f"line={address // LINE:#x} possible={int(possible)}")

    def sb_forward(self, address: int) -> None:
        self._file("store_buffer", "forward", f"line={address // LINE:#x}")

    # -- cache / TLB observers ----------------------------------------------- #

    def cache_fill(self, address: int, level: int) -> None:
        if level == 1:
            action, where = "hit", "l1"
        elif level == 2:
            action, where = "hit", "l2"
        else:
            action, where = "miss", "mem"
        self._file("cache", action, f"line={address // LINE:#x} {where}")

    def cache_flush(self, address: int) -> None:
        self._file("cache", "flush", f"line={address // LINE:#x}")

    def cache_flush_l1(self) -> None:
        self._file("cache", "flush", "l1")

    def tlb_fill(self, page: int) -> None:
        self._file("tlb", "fill", f"page={page:#x}")

    def tlb_flush(self, invalidated: int) -> None:
        self._file("tlb", "flush", f"invalidated={invalidated}")

    # -- predictor observers -------------------------------------------------- #

    def btb_train(self, pc: int, target: int, mode: Any) -> None:
        self._file("btb", "train",
                   f"pc={pc:#x}->{target:#x} mode={mode.value}")

    def btb_barrier(self) -> None:
        self._file("btb", "flush", "ibpb")

    def btb_flush(self) -> None:
        self._file("btb", "flush", "all")

    def cond_update(self, pc: int, taken: bool, state: int) -> None:
        self._file("cond", "train",
                   f"pc={pc:#x} taken={int(taken)} state={state}")

    def cond_flush(self) -> None:
        self._file("cond", "flush", "all")

    def rsb_push(self, return_address: int) -> None:
        self._file("rsb", "push", f"ra={return_address:#x}")

    def rsb_pop(self) -> None:
        self._file("rsb", "pop", "top")

    def rsb_stuff(self) -> None:
        self._file("rsb", "fill", "stuff")

    def rsb_clear(self) -> None:
        self._file("rsb", "flush", "all")

    # -- MDS buffer observers -------------------------------------------------- #

    def residue_load(self, value: int, mode: Any) -> None:
        self._file("mds", "fill", f"load value={value:#x} mode={mode.value}")

    def residue_store(self, value: int, mode: Any) -> None:
        self._file("mds", "fill", f"store value={value:#x} mode={mode.value}")

    def residue_clear(self) -> None:
        self._file("mds", "drain", "verw")

    # -- views ---------------------------------------------------------------- #

    @property
    def events(self) -> List[TimelineEvent]:
        """Held events, oldest first (at most ``capacity``)."""
        return list(self._events)

    @property
    def total(self) -> int:
        """Events ever filed (held + dropped + merged)."""
        return self.seq

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [event.to_dict() for event in self._events]

    def digest(self) -> int:
        """CRC32 over held event signatures: a cheap stream identity."""
        acc = 0
        for event in self._events:
            acc = zlib.crc32(repr(event.signature()).encode(), acc)
        return acc

    def structure_counts(self) -> Dict[str, int]:
        """Events per structure (aggregated over actions)."""
        totals: Dict[str, int] = {}
        for path, count in self.counts.items():
            structure = path.split(".", 1)[0]
            totals[structure] = totals.get(structure, 0) + count
        return totals

    def stats(self) -> Dict[str, Any]:
        """Machine-readable counterpart of :meth:`summary`."""
        return {
            "total": self.total,
            "held": len(self._events),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "digest": self.digest(),
            "counts": dict(self.counts),
        }

    def summary(self) -> str:
        held = len(self._events)
        parts = [f"{self.total} event(s), {held} held, "
                 f"{self.dropped} dropped (ring="
                 f"{self.capacity if self.capacity is not None else 'inf'})"]
        counts = self.structure_counts()
        if counts:
            parts.append(", ".join(f"{name}={counts[name]}"
                                   for name in sorted(counts)))
        return "; ".join(parts)

    # -- worker transport -------------------------------------------------------- #

    def state(self) -> Dict[str, Any]:
        """Picklable snapshot for executor workers (see merge_state)."""
        return {
            "counts": dict(self.counts),
            "total": self.seq,
            "dropped": self.dropped,
            "events": self.to_dicts(),
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Absorb a worker timeline's state into this one.

        Aggregate counts add; the worker's held events append to the
        ring (evicting through the same bounded path as live events).
        """
        for path, count in state.get("counts", {}).items():
            self.counts[path] = self.counts.get(path, 0) + int(count)
        self.dropped += int(state.get("dropped", 0))
        events = self._events
        for payload in state.get("events", ()):
            if events.maxlen is not None and len(events) == events.maxlen:
                self.dropped += 1
            events.append(TimelineEvent(**payload))
        self.seq += int(state.get("total", 0))


# --------------------------------------------------------------------------- #
# First-divergence differ
# --------------------------------------------------------------------------- #

TimelineLike = Union[EventTimeline, Sequence[TimelineEvent]]


@dataclass
class Divergence:
    """The earliest disagreement between two event streams.

    ``index`` is the position of the first differing event (events
    before it are identical on both sides); ``event_a``/``event_b`` are
    the disagreeing events (``None`` when that side's stream ended);
    the windows hold the surrounding events and ``counts``/``last_seen``
    give structure-state context over the common prefix.
    """

    index: int
    event_a: Optional[TimelineEvent]
    event_b: Optional[TimelineEvent]
    window_a: List[TimelineEvent] = field(default_factory=list)
    window_b: List[TimelineEvent] = field(default_factory=list)
    #: "structure.action" -> count over the identical common prefix.
    counts: Dict[str, int] = field(default_factory=dict)
    #: structure -> last event of that structure before the divergence.
    last_seen: Dict[str, TimelineEvent] = field(default_factory=dict)

    def _anchor(self) -> Optional[TimelineEvent]:
        return self.event_b if self.event_b is not None else self.event_a

    @property
    def structure(self) -> str:
        event = self._anchor()
        return event.structure if event is not None else ""

    @property
    def tsc(self) -> int:
        event = self._anchor()
        return event.tsc if event is not None else -1

    @property
    def instr(self) -> int:
        event = self._anchor()
        return event.instr if event is not None else -1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "structure": self.structure,
            "tsc": self.tsc,
            "instr": self.instr,
            "event_a": (self.event_a.to_dict()
                        if self.event_a is not None else None),
            "event_b": (self.event_b.to_dict()
                        if self.event_b is not None else None),
            "window_a": [e.to_dict() for e in self.window_a],
            "window_b": [e.to_dict() for e in self.window_b],
            "counts": dict(self.counts),
            "last_seen": {structure: event.to_dict()
                          for structure, event in self.last_seen.items()},
        }


def _event_list(source: TimelineLike) -> List[TimelineEvent]:
    if isinstance(source, EventTimeline):
        return source.events
    return list(source)


def first_divergence(a: TimelineLike, b: TimelineLike,
                     window: int = 8) -> Optional[Divergence]:
    """Earliest event where two streams disagree, or ``None`` if equal.

    Builds CRC32 prefix-hash chains over the event signatures and
    binary-searches them for the longest equal prefix — prefix-hash
    equality is monotone along the chain, so the search is sound; a
    final forward walk guards against hash collisions.
    """
    events_a = _event_list(a)
    events_b = _event_list(b)
    sig_a = [event.signature() for event in events_a]
    sig_b = [event.signature() for event in events_b]
    n = min(len(sig_a), len(sig_b))
    hash_a = [0] * (n + 1)
    hash_b = [0] * (n + 1)
    for i in range(n):
        hash_a[i + 1] = zlib.crc32(repr(sig_a[i]).encode(), hash_a[i])
        hash_b[i + 1] = zlib.crc32(repr(sig_b[i]).encode(), hash_b[i])
    if hash_a[n] == hash_b[n]:
        # Common prefix of length n agrees (w.h.p.); confirm and handle
        # a length mismatch where one stream simply ended.
        if len(sig_a) == len(sig_b) and sig_a == sig_b:
            return None
        index = n
    else:
        lo, hi = 0, n  # hashes equal at lo, different at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if hash_a[mid] == hash_b[mid]:
                lo = mid
            else:
                hi = mid
        index = lo
    # Collision guard / exact-index confirmation: walk forward from the
    # candidate to the true first differing signature.
    while index < n and sig_a[index] == sig_b[index]:
        index += 1
    if index >= len(sig_a) and index >= len(sig_b):
        return None
    event_a = events_a[index] if index < len(events_a) else None
    event_b = events_b[index] if index < len(events_b) else None
    lo_w = max(0, index - window)
    hi_w = index + window + 1
    counts: Dict[str, int] = {}
    last_seen: Dict[str, TimelineEvent] = {}
    for event in events_a[:index]:
        path = event.path()
        counts[path] = counts.get(path, 0) + 1
        last_seen[event.structure] = event
    return Divergence(index=index, event_a=event_a, event_b=event_b,
                      window_a=events_a[lo_w:hi_w],
                      window_b=events_b[lo_w:hi_w],
                      counts=counts, last_seen=last_seen)


def render_divergence(divergence: Optional[Divergence],
                      label_a: str = "A", label_b: str = "B") -> str:
    """Human-readable report for one divergence (or stream identity)."""
    if divergence is None:
        return "event streams are identical\n"
    lines = [f"first divergence at event #{divergence.index} "
             f"(structure={divergence.structure or '?'} "
             f"tsc={divergence.tsc} instr={divergence.instr})"]
    for label, event in ((label_a, divergence.event_a),
                         (label_b, divergence.event_b)):
        rendered = event.render() if event is not None else "<stream ended>"
        lines.append(f"  {label}: {rendered}")
    if divergence.last_seen:
        lines.append("structure state before divergence:")
        for structure in sorted(divergence.last_seen):
            lines.append(f"  {structure}: last "
                         f"{divergence.last_seen[structure].render()}")
    if divergence.counts:
        rendered_counts = ", ".join(
            f"{path}={divergence.counts[path]}"
            for path in sorted(divergence.counts))
        lines.append(f"common-prefix event counts: {rendered_counts}")
    for label, window in ((label_a, divergence.window_a),
                          (label_b, divergence.window_b)):
        lines.append(f"window [{label}]:")
        for event in window:
            diverging = (event is divergence.event_a
                         or event is divergence.event_b)
            marker = ">" if diverging else " "
            lines.append(f"  {marker} #{event.seq} {event.render()}")
    return "\n".join(lines) + "\n"
