"""Speculative-leakage observability: a taint-tracking flight recorder.

The cycle ledger (:mod:`repro.obs.ledger`) answers "what did the
mitigations *cost*?"; this module answers the complementary security-side
question: "what would have *leaked*?".  A :class:`LeakageTracer` tags
secret-labelled values at their source — a taint bit on simulated memory
lines (:meth:`~LeakageTracer.taint_address`) and on attacker-controlled
landing pads (:meth:`~LeakageTracer.taint_code`), set by workloads and
the speculation probe — and propagates the taint *mechanistically*
through the microarchitectural structures that already exist: store
buffer forwarding, BTB/RSB-influenced fetch redirects, and the MDS
fill/store/load-port buffers.  The machine puts the tracer into the
``observer`` slot of the store buffer, BTB, RSB and MDS buffers
(``None`` by default, so untraced runs pay one ``is None`` test per hook
site, exactly like the ledger's counter-file hook), and calls its
speculation-path hooks.  Cache fills and flushes, TLB walks, committed
store forwarding and the conditional predictor are taint-neutral, so no
hook reports them; the leakage-matrix tests pin the verdicts that rely
on it.

Whenever tainted data influences an architecturally observable channel
during a transient window, the tracer files a :class:`LeakageEvent`:

* ``cache_set`` — a transient load touched the cache with a tainted
  address (the transmit half of every Spectre/Meltdown gadget);
* ``port_timing`` — a divide executed transiently in a window steered by
  a tainted predictor entry (the paper's ``ARITH.DIVIDER_ACTIVE``
  probe signal, Bölük's technique);
* ``buffer_residue`` — a privilege boundary was crossed while an MDS
  buffer still held tainted residue from the other domain (the
  ``verw``-less crossing RIDL/ZombieLoad/Fallout sample).

Events are keyed by ``(primitive, boundary, mitigation_policy,
cpu_model)`` — exactly parallel to the cycle ledger's ``layer /
mitigation / primitive`` taxonomy, so cost and leakage join on the same
axes.  Primitive names follow Canella et al.'s systematization:
``spectre_btb`` (v2), ``spectre_rsb`` (ret2spec), ``spectre_pht`` (v1),
``spectre_stl`` (v4), ``meltdown_us``, ``mds_buffer``.

Mitigations are validated **by construction**, not by lookup table: each
mitigation's flush/serialize point clears exactly the taints it claims
to clear — ``verw`` erases tainted buffer residue, IBPB rewrites tainted
BTB entries, RSB stuffing overwrites tainted return predictions, and an
``lfence`` that terminates a tainted window suppresses its leak.  Every
clear is recorded as *blocked-by* attribution, so a run reports both
what leaked and which mitigation stopped what.

Attach like every observer: ``use_observers(tracer)`` (machines built
in the scope attach it) or ``machine.attach(tracer)``.  Tracing composes
with ``--engine=block`` by falling back to interpreted execution — taint
is a guard-key input, and the interpreter is bit-identical by the
engine's own differential contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

__all__ = [
    "CACHE_SET",
    "PORT_TIMING",
    "BUFFER_RESIDUE",
    "SPECTRE_BTB",
    "SPECTRE_RSB",
    "SPECTRE_PHT",
    "SPECTRE_STL",
    "MELTDOWN_US",
    "MDS_BUFFER",
    "LeakageEvent",
    "LeakageSummary",
    "LeakageTracer",
]

#: Observable channels a leakage event transmits through.
CACHE_SET = "cache_set"
PORT_TIMING = "port_timing"
BUFFER_RESIDUE = "buffer_residue"

#: Canella-style transient-execution primitive names.
SPECTRE_BTB = "spectre_btb"
SPECTRE_RSB = "spectre_rsb"
SPECTRE_PHT = "spectre_pht"
SPECTRE_STL = "spectre_stl"
MELTDOWN_US = "meltdown_us"
MDS_BUFFER = "mds_buffer"

#: Cache-line granularity shared with the store buffer and caches.
LINE = 64

#: Flight-recorder bound: counts keep accumulating past it, but event
#: detail records stop growing (``dropped`` says how many).
MAX_EVENTS = 10_000

PATH_SEP = "/"


def join_key(*parts: str) -> str:
    return PATH_SEP.join(parts)


@dataclass
class LeakageEvent:
    """One observation of tainted data reaching an observable channel.

    ``(primitive, boundary, policy, cpu)`` is the taxonomy key shared
    with the cycle ledger's rollup axes; ``channel`` and ``sink`` carry
    the mechanism detail, and ``tsc``/``mode`` place the event on the
    simulated timeline (Perfetto export renders them as instants).
    """

    primitive: str
    channel: str
    boundary: str
    policy: str
    cpu: str
    sink: str
    tsc: int
    mode: str

    def path(self) -> str:
        return join_key(self.primitive, self.channel, self.boundary,
                        self.policy, self.cpu)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "primitive": self.primitive,
            "channel": self.channel,
            "boundary": self.boundary,
            "policy": self.policy,
            "cpu": self.cpu,
            "sink": self.sink,
            "tsc": self.tsc,
            "mode": self.mode,
        }


@dataclass
class LeakageSummary:
    """Aggregate view of one tracer (or a merge of many workers)."""

    events: int
    unique_sinks: int
    by_path: Dict[str, int]
    blocked: Dict[str, int]
    dropped: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "unique_sinks": self.unique_sinks,
            "by_path": dict(self.by_path),
            "blocked": dict(self.blocked),
            "dropped": self.dropped,
        }


class _Window:
    """Context of one in-flight transient window."""

    __slots__ = ("primitive", "tainted", "boundary", "fired", "suppressed")

    def __init__(self, primitive: str, tainted: bool, boundary: str) -> None:
        self.primitive = primitive
        self.tainted = tainted
        self.boundary = boundary
        self.fired = False
        self.suppressed = False


class LeakageTracer:
    """Taint state plus the leakage-event flight recorder.

    One tracer can serve several machines in sequence (the probe builds
    a fresh machine per scenario); :meth:`bind_machine` re-keys events to
    the newest machine's CPU.
    """

    def __init__(self, policy: str = "default") -> None:
        self.policy = policy
        self.cpu_model = "unknown"
        self.events: List[LeakageEvent] = []
        self.dropped = 0
        #: path -> count, over *all* events (never truncated).
        self.counts: Dict[str, int] = {}
        self.channel_counts: Dict[str, int] = {}
        #: "mitigation/primitive" -> taints cleared (blocked-by attribution).
        self.blocked: Dict[str, int] = {}

        # Taint state ----------------------------------------------------
        self._lines: Set[int] = set()          # tainted memory lines
        self._code: Set[int] = set()           # taint-labelled landing pads
        self._sb_lines: Set[int] = set()       # tainted store-buffer lines
        self._residue: Dict[str, str] = {}     # MDS buffer -> deposit mode
        self._btb: Dict[int, str] = {}         # branch pc -> training mode
        self._rsb_stack: List[bool] = []       # mirrors the RSB, taint bits
        self._last_rsb_pop = False
        self._window: Optional[_Window] = None
        self._machine: Any = None
        self._rsb_depth = 32
        self._mds_vulnerable = True

    # -- wiring ----------------------------------------------------------- #

    def bind_machine(self, machine: Any) -> None:
        """Adopt ``machine`` (called from ``Machine.attach``, which wires
        the structure hooks): key events to its CPU."""
        self._machine = machine
        self.cpu_model = machine.cpu.key
        self._mds_vulnerable = machine.cpu.vulns.mds
        self._rsb_depth = machine.rsb.depth
        # Mirror whatever is already in the RSB as untainted.
        self._rsb_stack = [False] * len(machine.rsb)

    # -- taint sources ----------------------------------------------------- #

    def taint_address(self, address: int) -> None:
        """Label the memory line holding ``address`` as secret."""
        self._lines.add(address // LINE)

    def taint_code(self, address: int) -> None:
        """Label a code address as an attacker-controlled landing pad:
        predictor entries steering speculation there are tainted."""
        self._code.add(address)

    def is_tainted(self, address: int) -> bool:
        return address // LINE in self._lines

    # -- internals ---------------------------------------------------------- #

    def _now(self) -> int:
        machine = self._machine
        return machine.counters.tsc if machine is not None else 0

    def _mode(self) -> str:
        machine = self._machine
        return machine.mode.value if machine is not None else "?"

    def _block(self, mitigation: str, primitive: str, count: int = 1) -> None:
        key = join_key(mitigation, primitive)
        self.blocked[key] = self.blocked.get(key, 0) + count

    def _file(self, primitive: str, channel: str, boundary: str,
              sink: str) -> None:
        event = LeakageEvent(primitive, channel, boundary, self.policy,
                             self.cpu_model, sink, self._now(), self._mode())
        path = event.path()
        self.counts[path] = self.counts.get(path, 0) + 1
        self.channel_counts[channel] = self.channel_counts.get(channel, 0) + 1
        if len(self.events) < MAX_EVENTS:
            self.events.append(event)
        else:
            self.dropped += 1
        window = self._window
        if window is not None:
            window.fired = True

    # -- store buffer observer ---------------------------------------------- #

    def sb_push(self, address: int, value: int) -> None:
        line = address // LINE
        if line in self._lines or value // LINE in self._lines:
            # Storing secret data taints the line it lands on.
            self._sb_lines.add(line)
            self._lines.add(line)
        else:
            # Clean data overwrites the youngest pending store.
            self._sb_lines.discard(line)

    def sb_drain(self) -> None:
        self._sb_lines.clear()

    def sb_bypass(self, address: int, possible: bool) -> None:
        """A speculative-store-bypass probe (the v4 attack predicate)."""
        if possible and address // LINE in self._sb_lines:
            mode = self._mode()
            self._file(SPECTRE_STL, CACHE_SET, "{0}->{0}".format(mode),
                       "line={0:#x}".format(address // LINE))

    # -- BTB / RSB observers -------------------------------------------------- #

    def btb_train(self, pc: int, target: int, mode: Any) -> None:
        if target in self._code:
            self._btb[pc] = mode.value
        elif pc in self._btb:
            # Retrained with a harmless target: the poison is gone.
            del self._btb[pc]

    def btb_barrier(self) -> None:
        if self._btb:
            self._block("spectre_v2", "ibpb", len(self._btb))
            self._btb.clear()

    def btb_flush(self) -> None:
        if self._btb:
            self._block("spectre_v2", "btb_flush", len(self._btb))
            self._btb.clear()

    def rsb_push(self, return_address: int) -> None:
        self._rsb_stack.append(return_address in self._code)
        if len(self._rsb_stack) > self._rsb_depth:
            self._rsb_stack.pop(0)

    def rsb_pop(self) -> None:
        self._last_rsb_pop = (self._rsb_stack.pop()
                              if self._rsb_stack else False)

    def rsb_stuff(self) -> None:
        tainted = sum(1 for bit in self._rsb_stack if bit)
        if tainted:
            self._block("spectre_v2", "rsb_fill", tainted)
        self._rsb_stack = [False] * self._rsb_depth

    def rsb_clear(self) -> None:
        self._rsb_stack = []

    # -- MDS buffer observers -------------------------------------------------- #

    def residue_load(self, value: int, mode: Any) -> None:
        from ..cpu.buffers import FILL_BUFFER, LOAD_PORT
        self._set_residue(FILL_BUFFER, value, mode)
        self._set_residue(LOAD_PORT, value, mode)

    def residue_store(self, value: int, mode: Any) -> None:
        from ..cpu.buffers import STORE_BUFFER
        self._set_residue(STORE_BUFFER, value, mode)

    def _set_residue(self, name: str, value: int, mode: Any) -> None:
        if value // LINE in self._lines:
            self._residue[name] = mode.value
        else:
            # Untainted traffic overwrites the stale residue.
            self._residue.pop(name, None)

    def residue_clear(self) -> None:
        """The microcode-extended ``verw`` actually cleared the buffers."""
        if self._residue:
            self._block("mds", "verw", len(self._residue))
            self._residue.clear()

    # -- machine-driven hooks --------------------------------------------------- #

    def window_begin(self, primitive: str, mode: Any,
                     pc: Optional[int] = None,
                     target: Optional[int] = None) -> None:
        """A transient window opens.  Taint is derived from the steering
        mechanism: a tainted BTB entry at ``pc``, a tainted RSB pop, or a
        taint-labelled branch ``target``."""
        source = mode.value
        tainted = False
        if pc is not None:
            trained = self._btb.get(pc)
            if trained is not None:
                tainted = True
                source = trained
        if primitive == SPECTRE_RSB and self._last_rsb_pop:
            tainted = True
        if target is not None and target in self._code:
            tainted = True
        boundary = "{0}->{1}".format(source, mode.value)
        self._window = _Window(primitive, tainted, boundary)

    def window_end(self) -> None:
        self._window = None

    def on_lfence(self) -> None:
        """An ``lfence`` terminated the current transient window before
        any tainted sink fired: the Spectre V1 serialization guarantee."""
        window = self._window
        if window is not None and window.tainted and not window.fired:
            self._block("spectre_v1", "lfence")
            window.suppressed = True

    def on_transient_div(self) -> None:
        window = self._window
        if window is not None and window.tainted and not window.suppressed:
            self._file(window.primitive, PORT_TIMING, window.boundary,
                       "divider")

    def on_transient_load(self, address: int, kernel: bool,
                          mode: Any) -> None:
        line = address // LINE
        if line in self._lines:
            window = self._window
            if window is not None and window.suppressed:
                return
            if kernel and not mode.is_kernel:
                primitive = MELTDOWN_US
                boundary = "{0}->kernel".format(mode.value)
            elif window is not None:
                primitive = window.primitive
                boundary = window.boundary
            else:
                primitive = SPECTRE_PHT
                boundary = "{0}->{0}".format(mode.value)
            self._file(primitive, CACHE_SET, boundary,
                       "line={0:#x}".format(line))

    def on_stlf_blocked(self, address: int) -> None:
        if address // LINE in self._sb_lines:
            self._block("ssbd", "stlf_block")

    def on_predictor_bypass(self, pc: int, primitive: str) -> None:
        """An indirect branch skipped the BTB (retpoline, or IBRS
        suppressing prediction) while a tainted entry was live for it."""
        if pc in self._btb:
            self._block("spectre_v2", primitive)

    def on_redirect_suppressed(self, pc: int) -> None:
        """The BTB held a tainted entry for ``pc`` but hardware filtering
        (mode tags, STIBP, Zen 3's opaque index) refused the redirect."""
        if pc in self._btb:
            self._block("hardware", "btb_isolation")

    def on_boundary(self, old_mode: Any, new_mode: Any) -> None:
        """A privilege crossing (syscall/sysret/vmexit).  Tainted MDS
        residue from the other domain still live here is exactly what a
        sampling attacker reads — the ``verw``-less crossing."""
        if old_mode is new_mode or not self._mds_vulnerable:
            return
        foreign = sorted(name for name, mode in self._residue.items()
                         if mode != new_mode.value)
        if foreign:
            self._file(MDS_BUFFER, BUFFER_RESIDUE,
                       "{0}->{1}".format(old_mode.value, new_mode.value),
                       ",".join(foreign))

    # -- queries / aggregation ---------------------------------------------------- #

    def total_events(self) -> int:
        return sum(self.counts.values())

    def count(self, channel: Optional[str] = None) -> int:
        if channel is None:
            return self.total_events()
        return self.channel_counts.get(channel, 0)

    def summary(self) -> LeakageSummary:
        sinks = {(event.channel, event.sink) for event in self.events}
        return LeakageSummary(
            events=self.total_events(),
            unique_sinks=len(sinks),
            by_path=dict(self.counts),
            blocked=dict(self.blocked),
            dropped=self.dropped,
        )

    def state(self) -> Dict[str, Any]:
        """Serializable aggregate for cross-process transport — the same
        contract as ``CycleLedger.state()``/``merge_state()``."""
        return {
            "events": dict(self.counts),
            "channels": dict(self.channel_counts),
            "blocked": dict(self.blocked),
            "dropped": self.dropped,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold a worker tracer's :meth:`state` into this one."""
        for path, count in state.get("events", {}).items():
            self.counts[path] = self.counts.get(path, 0) + count
        for channel, count in state.get("channels", {}).items():
            self.channel_counts[channel] = (
                self.channel_counts.get(channel, 0) + count)
        for key, count in state.get("blocked", {}).items():
            self.blocked[key] = self.blocked.get(key, 0) + count
        self.dropped += state.get("dropped", 0)

    def report(self) -> str:
        lines = ["{0} leakage event(s), {1} blocked taint(s)".format(
            self.total_events(), sum(self.blocked.values()))]
        for path, count in sorted(self.counts.items()):
            lines.append("  LEAK {0} x{1}".format(path, count))
        for key, count in sorted(self.blocked.items()):
            lines.append("  blocked-by {0} x{1}".format(key, count))
        return "\n".join(lines) + "\n"
