"""Block-compilation engine: memoized instruction-sequence deltas.

Every figure, table, sweep and ablation in this reproduction bottoms out
in :meth:`~repro.cpu.machine.Machine.execute` — a per-instruction Python
dispatch over heap-allocated :class:`~repro.cpu.isa.Instruction` objects,
plus a per-charge counter/ledger filing cost.  Study grids re-execute the
same kernel entry/exit, handler and mitigation sequences millions of
times, which is exactly the repeated-straight-line-code shape block
compilation exploits (compare an emulator's precomputed cycle-lookup
dispatch).

The engine executes instruction *sequences* (the lists handed to
``Machine.run``) through a cache of compiled blocks.  A compiled block is
a list of steps:

* **pure steps** — maximal runs of context-pure ops (``ALU``/``WORK``/
  ``NOP``/``MUL``/``DIV``/``CMOV``/``PAUSE``/``LFENCE``/``CALL``/
  ``RSB_FILL``/``SWAPGS``/``RDTSC``/``RDPMC``/``RDMSR``/``XSAVE``/
  ``XRSTOR``, plus ops with per-machine-constant costs and deterministic
  side effects: ``VERW``, ``CLFLUSH``, ``L1D_FLUSH``, ``VMENTER``/
  ``VMEXIT`` and accepted ``WRMSR`` writes) whose total cycles,
  aggregated counter bumps and aggregated ledger postings are precomputed
  at compile time and applied in one batched charge instead of N;
* **recorded steps** — runs that also contain ops whose cost depends on
  mutable microarchitectural state but in a *verifiable* way (loads,
  stores, indirect branches — retpoline or predicted — ``SYSCALL``/
  ``SYSRET``, PCID-preserving ``MOV_CR3``).  These are memoized per
  **guard key**: on first execution under a guard the engine runs the
  interpreter while probing the TLB/cache/store-buffer/BTB pre-state it
  depended on; if the recording is *clean* (every access hit and every
  indirect branch predicted its committed target or stably missed, so
  replaying mutates nothing but LRU order, predictor trains and
  store-buffer pushes) the observed deltas — cycles, counter bumps,
  ledger postings, buffer mutations, MDS residue — are stored.  Later
  executions re-validate the recorded pre-state predicates (membership
  tests plus BTB-lookup value predicates) and apply the deltas in one
  batch; any mismatch falls back to a fresh interpreted recording.
* **terminator steps** — single instructions whose behaviour cannot be
  memoized (conditional branches, ``RET``, ``WRMSR`` writes the MSR file
  would reject, and ``SYSCALL``/``MOV_CR3`` on parts where they mutate
  predictor or TLB state unpredictably).  They run through the
  interpreter unchanged, so the engine is a transparent fast path, never
  a semantic fork.

Bit-identity argument: the TSC, every performance counter, and every
ledger entry are integer *sums*; batching N per-instruction charges into
one charge per (mitigation, primitive) tag group is exact.  Ordered side
effects (OrderedDict ``move_to_end``, store-buffer pushes, RSB/BHB
pushes, MDS residue deposits) are replayed in recorded order against the
live structures, so post-block machine state is identical to the
interpreter's.  The differential test in
``tests/cpu/test_engine_differential.py`` enforces this across the study
grid.

Blocks are keyed by the identity of the sequence object (pinned so the
id cannot be recycled) and re-validated against the snapshotted
instruction tuple, so a caller mutating a list in place simply triggers
recompilation.  Guard keys capture exactly the machine state that can
change a compiled op's cost or effects: privilege mode, the
``IA32_SPEC_CTRL`` value (IBRS/STIBP/SSBD bits), the current PCID, the
retpoline flavour and the KPTI mapping state.  Per-machine constants
(microcode patch status, CPU model) are guarded implicitly because the
engine itself is per-machine.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import counters as ctr
from .isa import Instruction, Op
from .modes import Mode
from .msr import (
    IA32_ARCH_CAPABILITIES,
    IA32_FLUSH_CMD,
    IA32_PRED_CMD,
    IA32_SPEC_CTRL,
    L1D_FLUSH_BIT,
    PRED_CMD_IBPB,
    SPEC_CTRL_IBRS,
    SPEC_CTRL_SSBD,
)

#: Engine mode names (the CLI's ``--engine`` choices).
ENGINE_BLOCK = "block"
ENGINE_INTERP = "interp"
ENGINE_MODES = (ENGINE_BLOCK, ENGINE_INTERP)

#: Ops whose cost and side effects are compile-time constants for a given
#: machine (costs never change after construction).  CALL/RSB_FILL have
#: deterministic predictor side effects, VERW/CLFLUSH/L1D_FLUSH/WRMSR
#: have deterministic flush/write side effects, and VMENTER/VMEXIT set
#: the mode to a fixed value; all are replayed from the compiled step.
#: WRMSR is admitted via :meth:`BlockEngine._wrmsr_compilable` (writes
#: the MSR file would reject stay on the interpreter so the exception
#: surfaces with per-instruction charge granularity).
PURE_OPS = frozenset({
    Op.ALU, Op.WORK, Op.NOP, Op.MUL, Op.DIV, Op.CMOV, Op.PAUSE,
    Op.LFENCE, Op.CALL, Op.RSB_FILL, Op.SWAPGS, Op.RDTSC, Op.RDPMC,
    Op.RDMSR, Op.XSAVE, Op.XRSTOR, Op.VERW, Op.CLFLUSH, Op.L1D_FLUSH,
    Op.VMENTER, Op.VMEXIT,
})

#: Ops the recorder can memoize under a guard key (loads/stores via
#: pre-state predicates; the rest are deterministic under the guard).
#: Retpoline-flagged indirect branches and the per-machine MOV_CR3 /
#: SYSCALL gates are decided at classification time, not listed here.
RECORDABLE_OPS = frozenset({Op.LOAD, Op.STORE, Op.SYSRET})

#: Records that fail this many times for one guard stop probing and fall
#: through to the plain interpreter permanently (for that guard).
MAX_RECORD_FAILURES = 8

#: Compiled-block cache entries per engine before a wholesale clear (a
#: backstop against id-keyed growth from one-shot JIT blocks).
MAX_CACHED_BLOCKS = 4096

#: Guard variants memoized per recorded step before new guards stop
#: being recorded (existing memos keep working).
MAX_GUARDS_PER_STEP = 32

#: Memo variants kept per guard.  A block can run in several recurring
#: machine-state *phases* under one guard (e.g. cold-TLB on the first
#: handler call of an iteration, warm on the rest); each phase gets its
#: own memo, selected by whichever variant's predicates pass.
MAX_MEMO_VARIANTS = 4

_RETIRED = ctr.INSTRUCTIONS_RETIRED

# Step tags.
_PURE, _TERM, _RECORDED = 0, 1, 2


def _touch_many(container: Any, keys: Tuple[Any, ...]) -> None:
    """Replay a run of LRU touches against one OrderedDict."""
    move = container.move_to_end
    for key in keys:
        move(key)


def _replay_accesses(target: Any, addresses: Tuple[int, ...]) -> None:
    """Replay a recorded access stream through the live structure.

    ``target`` is the TLB or the cache hierarchy: both expose
    ``access(address)``, and calling the real method replays every fill,
    eviction and LRU move exactly as the interpreter would have."""
    access = target.access
    for address in addresses:
        access(address)


def _fits(container: Any, limit: int) -> bool:
    """Value-check predicate: does ``container`` have eviction headroom?"""
    return len(container) <= limit


def _touch_tlb_pages(tlb: Any, pages: Tuple[int, ...]) -> None:
    """Replay deferred TLB LRU touches under the *live* PCID.

    Memoized TLB hits are checked against ``(current_pcid, page)`` at
    replay time, so their LRU touches must build keys the same way."""
    entries = tlb._entries
    pcid = tlb.current_pcid if tlb.supports_pcid else 0
    move = entries.move_to_end
    for page in pages:
        move((pcid, page))


class EngineStats:
    """Process-wide engine telemetry (merged across executor workers)."""

    __slots__ = ("blocks_compiled", "block_hits", "memo_hits",
                 "memo_records", "interp_fallbacks")

    FIELDS = ("blocks_compiled", "block_hits", "memo_hits",
              "memo_records", "interp_fallbacks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.blocks_compiled = 0
        self.block_hits = 0
        self.memo_hits = 0
        self.memo_records = 0
        self.interp_fallbacks = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def merge(self, state: Dict[str, int]) -> None:
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + int(state.get(name, 0)))

    def hit_rate(self) -> float:
        """Fraction of engine-eligible block executions served compiled."""
        total = self.block_hits + self.interp_fallbacks
        return self.block_hits / total if total else 0.0

    def summary(self) -> str:
        return (f"{self.blocks_compiled} blocks compiled, "
                f"{self.block_hits} block hits, "
                f"{self.memo_hits} memo hits / {self.memo_records} records, "
                f"{self.interp_fallbacks} interp fallbacks "
                f"({100.0 * self.hit_rate():.1f}% hit rate)")


#: Module-level stats: every BlockEngine in the process bumps these.
STATS = EngineStats()


# ----------------------------------------------------------------------
# Ambient engine mode (mirrors obs.spans / obs.ledger).

_default_mode = os.environ.get("SPECTRESIM_ENGINE", ENGINE_INTERP)


def default_engine() -> str:
    """The engine mode new machines adopt (``interp`` unless overridden)."""
    return _default_mode


def set_default_engine(mode: str) -> str:
    """Set the ambient engine mode; returns the previous one."""
    global _default_mode
    if mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {mode!r}; want one of "
                         f"{ENGINE_MODES}")
    previous = _default_mode
    _default_mode = mode
    return previous


@contextmanager
def use_engine(mode: str) -> Iterator[str]:
    previous = set_default_engine(mode)
    try:
        yield mode
    finally:
        set_default_engine(previous)


# ----------------------------------------------------------------------
# Compiled-block data structures.

class _Memo:
    """One clean recording of a recorded step under one guard key."""

    __slots__ = ("checks", "tlb_checks", "value_checks", "ops", "cycles",
                 "postings", "bumps", "load_residue", "store_residue",
                 "final_mode", "final_pcid")

    def __init__(self) -> None:
        self.checks: Tuple[Tuple[Any, Any, bool], ...] = ()
        # TLB membership predicates stored as (page, expected) and keyed
        # with the *live* PCID at check time, so one memo stays valid
        # across the PCID churn of process re-creation.
        self.tlb_checks: Tuple[Tuple[int, bool], ...] = ()
        # Prebound value predicates: replay is valid iff fn(*args) still
        # returns the recorded value (e.g. a BTB lookup outcome).
        self.value_checks: Tuple[Tuple[Any, Tuple[Any, ...], Any], ...] = ()
        # Replay ops are prebound (callable, args) pairs: the containers
        # they close over are mutated in place by the machine (cleared,
        # never reassigned), so the bindings stay live.
        self.ops: Tuple[Tuple[Any, Tuple[Any, ...]], ...] = ()
        self.cycles = 0
        self.postings: Tuple[Tuple[str, str, int], ...] = ()
        self.bumps: Tuple[Tuple[str, int], ...] = ()
        self.load_residue: Optional[Tuple[int, Any]] = None
        self.store_residue: Optional[Tuple[int, Any]] = None
        self.final_mode: Optional[Any] = None
        self.final_pcid: Optional[int] = None


class _GuardState:
    """Per-guard recording state: memo variants plus a failure budget."""

    __slots__ = ("variants", "failures")

    def __init__(self) -> None:
        self.variants: List[_Memo] = []
        self.failures = 0


class _Recorded:
    """A segment containing recordable ops: per-guard memo dictionary."""

    __slots__ = ("instrs", "memos")

    def __init__(self, instrs: Tuple[Instruction, ...]) -> None:
        self.instrs = instrs
        # guard -> _GuardState (memo variants + failure count)
        self.memos: Dict[Any, _GuardState] = {}


class _Compiled:
    __slots__ = ("steps",)

    def __init__(self, steps: Tuple[Any, ...]) -> None:
        self.steps = steps


class _Entry:
    """One block-cache entry: pins the sequence, snapshots its contents."""

    __slots__ = ("seq", "instrs", "compiled")

    def __init__(self, seq: Sequence[Instruction]) -> None:
        self.seq = seq                    # strong ref: id stays unique
        self.instrs = tuple(seq)          # identity-compared on lookup
        self.compiled: Optional[_Compiled] = None


class BlockEngine:
    """Per-machine block compiler and executor.

    Transparent fast path for ``Machine.run``: sequences seen once run
    through the interpreter (and are fingerprinted); sequences seen again
    unchanged are compiled and thereafter executed as batched steps.
    """

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self._blocks: Dict[int, _Entry] = {}
        # The MSR value dict is mutated in place, never reassigned; a
        # direct reference keeps the per-block guard computation cheap.
        self._msr_values = machine.msr._values
        # Whether VERW clears buffers on this machine (per-machine
        # constants, so decidable at compile time).
        self._verw_clearing = (machine.cpu.vulns.mds
                               and machine.microcode_patched
                               and machine.costs.verw_clear is not None)

    # -- public entry points ------------------------------------------- #

    def run(self, seq: Sequence[Instruction]) -> int:
        """Execute ``seq`` on the committed path; returns total cycles.

        The entry pins ``seq``, so a matching id means the same object;
        tuples are immutable and skip the in-place-mutation check that
        lists need.  Callers come through ``Machine.run``, which never
        routes here while a leakage tracer is attached: compiled deltas
        do not model taint.
        """
        entry = self._blocks.get(id(seq))
        if entry is None or (seq.__class__ is not tuple
                             and entry.instrs != tuple(seq)):
            if len(self._blocks) >= MAX_CACHED_BLOCKS:
                self._blocks.clear()
            self._blocks[id(seq)] = _Entry(seq)
            STATS.interp_fallbacks += 1
            return self._interpret(seq)
        if entry.compiled is None:
            entry.compiled = self._compile(entry.instrs)
        STATS.block_hits += 1
        return self._execute_compiled(entry.compiled)

    def prime(self, seq: Sequence[Instruction]) -> None:
        """Pre-register ``seq`` as a compiled block (skips the warm-up
        sighting).  Used for kernel entry/exit streams and handler blocks
        whose reuse is known up front."""
        entry = self._blocks.get(id(seq))
        if entry is None or entry.instrs != tuple(seq):
            entry = _Entry(seq)
            self._blocks[id(seq)] = entry
        if entry.compiled is None:
            entry.compiled = self._compile(entry.instrs)

    # -- compilation ---------------------------------------------------- #

    def _wrmsr_compilable(self, instr: Instruction) -> bool:
        """Would this MSR write succeed?  Rejected writes raise inside the
        MSR file; those must run interpreted so the exception fires with
        the interpreter's per-instruction charge granularity."""
        msr_file = self.machine.msr
        if instr.msr == IA32_SPEC_CTRL:
            value = instr.value
            if value & SPEC_CTRL_IBRS and not (msr_file.supports_ibrs
                                               or msr_file.supports_eibrs):
                return False
            if value & SPEC_CTRL_SSBD and not msr_file.supports_ssbd:
                return False
            return True
        return instr.msr != IA32_ARCH_CAPABILITIES

    def _classify(self, instr: Instruction) -> int:
        """0 = pure, 1 = recordable, 2 = terminator."""
        op = instr.op
        if op in PURE_OPS:
            return 0
        if op in RECORDABLE_OPS:
            return 1
        if op is Op.WRMSR:
            return 0 if self._wrmsr_compilable(instr) else 2
        machine = self.machine
        if op in (Op.BRANCH_INDIRECT, Op.CALL_INDIRECT):
            # Retpolines never consult or train the BTB: cost depends only
            # on the retpoline flavour (in the guard), effects on the BHB
            # (and RSB for calls) are deterministic pushes.  Raw indirects
            # are memoized against a recorded BTB-lookup predicate; the
            # recorder bails to the interpreter on the mispredict/transient
            # path, so only converged (hit or stable-miss) branches memoize.
            return 1
        if op is Op.MOV_CR3 and machine.tlb.supports_pcid:
            # PCID-preserving cr3 write: constant cost, deterministic
            # current_pcid update.  Without PCIDs the cost depends on the
            # live TLB occupancy, so it terminates the block instead.
            return 1
        if op is Op.SYSCALL and not machine.cpu.predictor.eibrs_periodic_scrub:
            # Entry cost is constant unless the part periodically scrubs
            # the BTB on entry (hidden countdown + RNG state).
            return 1
        return 2

    def _compile(self, instrs: Tuple[Instruction, ...]) -> _Compiled:
        steps: List[Any] = []
        buf: List[Instruction] = []
        buf_recordable = False

        def flush() -> None:
            nonlocal buf, buf_recordable
            if not buf:
                return
            if buf_recordable:
                steps.append((_RECORDED, _Recorded(tuple(buf))))
            else:
                steps.append(self._compile_pure(buf))
            buf = []
            buf_recordable = False

        for instr in instrs:
            kind = self._classify(instr)
            if kind == 2:
                flush()
                steps.append((_TERM, instr))
            else:
                buf.append(instr)
                if kind == 1:
                    buf_recordable = True
        flush()
        STATS.blocks_compiled += 1
        return _Compiled(tuple(steps))

    def _compile_pure(self, buf: Sequence[Instruction]) -> Tuple[Any, ...]:
        """Precompute one pure segment's batched charge at compile time."""
        machine = self.machine
        costs = machine.costs
        cycles = 0
        postings: Dict[Tuple[Any, Any], int] = {}
        bump_acc: Dict[str, int] = {}
        effects: List[Tuple[Any, Tuple[Any, ...]]] = []
        for instr in buf:
            op = instr.op
            if op is Op.ALU:
                c = costs.alu
            elif op is Op.WORK:
                c = instr.value
            elif op is Op.NOP:
                c = costs.nop
            elif op is Op.MUL:
                c = costs.mul
            elif op is Op.DIV:
                c = costs.div
                bump_acc[ctr.DIVIDER_ACTIVE] = \
                    bump_acc.get(ctr.DIVIDER_ACTIVE, 0) + costs.div
            elif op is Op.CMOV:
                c = costs.cmov
            elif op is Op.PAUSE:
                c = costs.pause
            elif op is Op.LFENCE:
                c = costs.lfence
            elif op is Op.CALL:
                c = costs.call
                effects.append((machine.rsb.push, (instr.pc,)))
                effects.append((machine.bhb.push, (instr.pc,)))
            elif op is Op.RSB_FILL:
                c = costs.rsb_fill
                effects.append((machine.rsb.stuff, ()))
            elif op is Op.SWAPGS:
                c = costs.swapgs
            elif op is Op.RDTSC:
                c = costs.rdtsc
            elif op is Op.RDPMC:
                c = costs.rdpmc
            elif op is Op.RDMSR:
                c = costs.rdmsr
            elif op is Op.XSAVE:
                c = costs.xsave
            elif op is Op.XRSTOR:
                c = costs.xrstor
            elif op is Op.VERW:
                if self._verw_clearing:
                    c = costs.verw_clear
                    effects.append((machine.mds_buffers.clear, ()))
                    bump_acc[ctr.VERW_CLEARS] = \
                        bump_acc.get(ctr.VERW_CLEARS, 0) + 1
                else:
                    c = costs.verw_legacy
            elif op is Op.WRMSR:
                if (instr.msr == IA32_PRED_CMD
                        and instr.value & PRED_CMD_IBPB):
                    c = costs.ibpb
                elif (instr.msr == IA32_FLUSH_CMD
                        and instr.value & L1D_FLUSH_BIT):
                    c = costs.l1d_flush
                else:
                    c = costs.wrmsr
                effects.append((machine.msr.write, (instr.msr, instr.value)))
            elif op is Op.CLFLUSH:
                c = costs.clflush
                effects.append((machine.caches.flush_line, (instr.address,)))
            elif op is Op.L1D_FLUSH:
                c = costs.l1d_flush
                effects.append((machine.msr.write,
                                (IA32_FLUSH_CMD, L1D_FLUSH_BIT)))
            elif op is Op.VMENTER:
                c = costs.vmenter
                effects.append((setattr,
                                (machine, "mode", Mode.GUEST_KERNEL)))
            else:  # Op.VMEXIT — _classify admits nothing else
                c = costs.vmexit
                effects.append((setattr, (machine, "mode", Mode.KERNEL)))
            cycles += c
            tag = instr.attr_tag
            postings[tag] = postings.get(tag, 0) + c
        posting_list = tuple((mit, prim, c) for (mit, prim), c
                             in postings.items())
        return (_PURE, cycles, posting_list, tuple(bump_acc.items()),
                len(buf), tuple(effects))

    # -- execution ------------------------------------------------------- #

    def _interpret(self, seq: Sequence[Instruction]) -> int:
        machine = self.machine
        total = 0
        for instr in seq:
            total += machine.execute(instr)
        return total

    def _execute_compiled(self, compiled: _Compiled) -> int:
        machine = self.machine
        counters = machine.counters
        events = counters.events
        ledger = machine.ledger
        total = 0
        for step in compiled.steps:
            tag = step[0]
            if tag == _PURE:
                _, cycles, postings, bumps, retired, effects = step
                if ledger is None:
                    # add_cycles() without a ledger is exactly this.
                    counters.tsc += cycles
                else:
                    for mit, prim, c in postings:
                        ledger.set_tag(mit, prim)
                        counters.add_cycles(c)
                    ledger.clear_tag()
                for name, amount in bumps:
                    events[name] = events.get(name, 0) + amount
                events[_RETIRED] = events.get(_RETIRED, 0) + retired
                for fn, args in effects:
                    fn(*args)
                total += cycles
            elif tag == _TERM:
                total += machine.execute(step[1])
            else:
                total += self._run_recorded(step[1])
        return total

    # -- recorded segments ---------------------------------------------- #

    def _guard(self) -> Tuple[Any, ...]:
        # The active PCID is deliberately NOT part of the guard: PCIDs are
        # allocated from a global counter, so keying on them would orphan
        # every memo whenever a workload re-creates its processes.  The
        # recorder instead pins ``tlb.current_pcid`` with a value check on
        # exactly the segments whose replay depends on it (non-global TLB
        # keys); segments touching only global kernel pages replay under
        # any PCID.
        machine = self.machine
        return (machine.mode,
                self._msr_values.get(IA32_SPEC_CTRL, 0),
                machine.retpoline_variant,
                machine.kernel_mapped_in_user)

    def _run_recorded(self, rec: _Recorded) -> int:
        guard = self._guard()
        state = rec.memos.get(guard)
        if state is None:
            if len(rec.memos) >= MAX_GUARDS_PER_STEP:
                STATS.interp_fallbacks += 1
                return self._interpret(rec.instrs)
            state = _GuardState()
            rec.memos[guard] = state
        else:
            checks_pass = self._checks_pass
            variants = state.variants
            for i, memo in enumerate(variants):
                if checks_pass(memo):
                    if i:
                        # Phases run in streaks (one cold sighting, then
                        # many warm ones): keep the matching variant first.
                        del variants[i]
                        variants.insert(0, memo)
                    STATS.memo_hits += 1
                    return self._apply_memo(memo)
            if state.failures >= MAX_RECORD_FAILURES:
                STATS.interp_fallbacks += 1
                return self._interpret(rec.instrs)
        return self._record(rec, state)

    def _checks_pass(self, memo: _Memo) -> bool:
        for container, key, expected in memo.checks:
            if (key in container) != expected:
                return False
        if memo.tlb_checks:
            tlb = self.machine.tlb
            entries = tlb._entries
            pcid = tlb.current_pcid if tlb.supports_pcid else 0
            for page, expected in memo.tlb_checks:
                if ((pcid, page) in entries) != expected:
                    return False
        for fn, args, expected in memo.value_checks:
            if fn(*args) != expected:
                return False
        return True

    def _apply_memo(self, memo: _Memo) -> int:
        machine = self.machine
        counters = machine.counters
        ledger = machine.ledger
        if ledger is None:
            counters.tsc += memo.cycles
        else:
            for mit, prim, c in memo.postings:
                ledger.set_tag(mit, prim)
                counters.add_cycles(c)
            ledger.clear_tag()
        events = counters.events
        for name, amount in memo.bumps:
            events[name] = events.get(name, 0) + amount
        for fn, args in memo.ops:
            fn(*args)
        buffers = machine.mds_buffers
        if memo.load_residue is not None:
            buffers.deposit_load(*memo.load_residue)
        if memo.store_residue is not None:
            buffers.deposit_store(*memo.store_residue)
        if memo.final_mode is not None:
            machine.mode = memo.final_mode
        if memo.final_pcid is not None:
            machine.tlb.current_pcid = memo.final_pcid
        return memo.cycles

    def _record(self, rec: _Recorded, state: _GuardState) -> int:
        """Execute ``rec`` through the interpreter while recording the
        pre-state predicates and deltas needed to replay it.

        The recording is authoritative — the interpreter runs as normal,
        so even a rejected (unclean) recording costs only the probing
        overhead.  A clean recording is stored as a new memo variant for
        this guard.
        """
        machine = self.machine
        counters = machine.counters
        ledger = machine.ledger
        tlb = machine.tlb
        sb = machine.store_buffer
        l1 = machine.caches.l1
        entries = tlb._entries
        global_pages = tlb._global_pages
        pending = sb._pending
        supports_pcid = tlb.supports_pcid
        l1_sets = l1._sets
        num_sets = l1.num_sets
        l2 = machine.caches.l2
        l2_sets = l2._sets
        l2_num_sets = l2.num_sets
        btb = machine.btb
        btb_table = btb._table
        thread_id = machine.thread_id

        tsc_before = counters.tsc
        events_before = dict(counters.events)
        ledger_before = dict(ledger._entries) if ledger is not None else None

        checks: List[Tuple[Any, Any, bool]] = []
        value_checks: List[Tuple[Any, Tuple[Any, ...], Any]] = []
        ops: List[Tuple[Any, Tuple[Any, ...]]] = []
        # LRU touches, deduplicated: for back-to-back move_to_end calls
        # only the *last* touch of each key decides the final order, and
        # nothing observes the dict between replayed ops.  Keyed by
        # (container id, key); del-then-insert keeps last-touch order.
        touches: Dict[Tuple[int, Any], Tuple[Any, Tuple[Any, ...]]] = {}
        clean = True
        pushed_lines = set()
        push_count = 0
        needs_push_bound = False
        load_residue = None
        store_residue = None
        mode_changed = False
        pcid_changed = False
        # Raw-indirect soundness state: lookup predicates are evaluated
        # against the replay *pre*-state, so they are only sound while no
        # earlier in-segment op has retrained the same pc (seg_trained),
        # rewritten the whole table (an IBPB), or risked a capacity
        # eviction that a later lookup could observe.
        seg_trained = set()
        btb_dirty = False
        # Per-structure replay batches.  The structures are mutually
        # independent (a store-buffer push never observes BHB or BTB
        # state and vice versa), so partitioning the recorded ops by
        # structure and replaying each run through one batched call
        # preserves every per-structure order that matters.  The one
        # cross-structure interaction — an in-segment IBPB rewriting the
        # BTB — flushes the pending train batch first (below).
        sb_pushes: List[Tuple[int, int]] = []
        bhb_pcs: List[int] = []
        btb_trains: List[Tuple[Any, ...]] = []
        # Miss-y segments replay the *entire* recorded access stream
        # through the live TLB / cache hierarchy (one batched call each),
        # so fills, evictions and LRU moves reproduce the interpreter
        # exactly.  Validity needs the access *outcomes* to be
        # reproducible from the pre-state: hits in fill-free sets are
        # pinned by membership checks, while any set that takes a fill is
        # pinned by an exact content-order snapshot (its eviction choices
        # are then deterministic).  The TLB instead gets a capacity
        # headroom predicate — big enough that in-segment eviction never
        # happens in practice, and falls back to recording when it would.
        tlb_addrs: List[int] = []
        cache_addrs: List[int] = []
        # TLB predicates and LRU touches recorded *before* any in-segment
        # CR3 switch are stored by page and resolved against the live PCID
        # at replay time (``pcid_is_ambient``); after a switch the PCID is
        # determined by the MOV_CR3 instruction itself, so static keys are
        # exact.  This keeps kernel-handler memos alive across the PCID
        # churn of workload process re-creation.
        tlb_page_checks: List[Tuple[int, bool]] = []
        tlb_touches: Dict[int, bool] = {}
        pcid_is_ambient = True
        tlb_fills = 0
        cache_fills = 0
        seg_tlb_filled = set()
        seg_l1_filled = set()
        seg_l2_filled = set()
        l1_fill_sets = set()
        l2_fill_sets = set()
        l1_snapshots: Dict[int, Tuple[int, ...]] = {}
        l2_snapshots: Dict[int, Tuple[int, ...]] = {}
        cache_flush_seen = False

        for instr in rec.instrs:
            op = instr.op
            if op is Op.LOAD or op is Op.STORE:
                if clean:
                    address = instr.address
                    tlb_addrs.append(address)
                    cache_addrs.append(address)
                    page = address // 4096
                    if page in global_pages:
                        checks.append((global_pages, page, True))
                    else:
                        key = ((tlb.current_pcid if supports_pcid else 0),
                               page)
                        if key in entries:
                            if key not in seg_tlb_filled:
                                if pcid_is_ambient:
                                    tlb_page_checks.append((page, True))
                                    if page in tlb_touches:
                                        del tlb_touches[page]
                                    tlb_touches[page] = True
                                else:
                                    checks.append((entries, key, True))
                                    tkey = (id(entries), key)
                                    if tkey in touches:
                                        del touches[tkey]
                                    touches[tkey] = (entries.move_to_end,
                                                     (key,))
                        else:
                            # TLB miss: verifiable absence, and the fill
                            # replays through the access stream.
                            if pcid_is_ambient:
                                tlb_page_checks.append((page, False))
                            else:
                                checks.append((entries, key, False))
                            seg_tlb_filled.add(key)
                            tlb_fills += 1
                    line = address // 64
                    set_index = line % num_sets
                    cset = l1_sets[set_index]
                    if set_index not in l1_snapshots:
                        l1_snapshots[set_index] = tuple(cset)
                    if line in cset:
                        if line not in seg_l1_filled:
                            checks.append((cset, line, True))
                            tkey = (id(cset), line)
                            if tkey in touches:
                                del touches[tkey]
                            touches[tkey] = (cset.move_to_end, (line,))
                    else:
                        # L1 miss: the fill-set gets pinned by an exact
                        # snapshot, and the L2 probe decides the cost.
                        if cache_flush_seen:
                            clean = False
                        cache_fills += 1
                        seg_l1_filled.add(line)
                        l1_fill_sets.add(set_index)
                        l2_index = line % l2_num_sets
                        l2_set = l2_sets[l2_index]
                        if l2_index not in l2_snapshots:
                            l2_snapshots[l2_index] = tuple(l2_set)
                        if line in l2_set:
                            if line not in seg_l2_filled:
                                checks.append((l2_set, line, True))
                        else:
                            seg_l2_filled.add(line)
                            l2_fill_sets.add(l2_index)
                if op is Op.LOAD:
                    if clean:
                        line = instr.address // 64
                        if line in pending:
                            if line in pushed_lines:
                                # Guaranteed by our own replayed pushes as
                                # long as they cannot have drained.
                                needs_push_bound = True
                            elif push_count == 0:
                                checks.append((pending, line, True))
                            else:
                                # Pre-state entry that may have been
                                # evicted by our pushes on a different
                                # pre-state: not verifiable cheaply.
                                clean = False
                        elif line in pushed_lines:
                            clean = False  # our push drained: len-dependent
                        else:
                            checks.append((pending, line, False))
                    load_residue = (instr.value or instr.address,
                                    machine.mode)
                else:
                    if clean:
                        sb_pushes.append((instr.address, instr.value))
                        pushed_lines.add(instr.address // 64)
                        push_count += 1
                    store_residue = (instr.value or instr.address,
                                     machine.mode)
            elif op is Op.CALL:
                ops.append((machine.rsb.push, (instr.pc,)))
                bhb_pcs.append(instr.pc)
            elif op is Op.RSB_FILL:
                ops.append((machine.rsb.stuff, ()))
            elif op is Op.BRANCH_INDIRECT or op is Op.CALL_INDIRECT:
                if not instr.retpoline and clean:
                    pc = instr.pc
                    if (btb_dirty or pc in seg_trained
                            or len(btb_table) > btb.capacity - 64):
                        clean = False
                    else:
                        mode_now = machine.mode
                        stibp = machine.msr.stibp_enabled
                        if machine._indirect_prediction_allowed():
                            predicted = btb.lookup(pc, mode_now, thread_id,
                                                   stibp)
                            if (predicted is None
                                    or predicted == instr.target):
                                value_checks.append(
                                    (btb.lookup,
                                     (pc, mode_now, thread_id, stibp),
                                     predicted))
                            else:
                                # Mispredict: a transient window would run.
                                clean = False
                        # Prediction suppressed (IBRS): the outcome is
                        # deterministic under the guard, no check needed.
                        if clean:
                            btb_trains.append((pc, instr.target, mode_now,
                                               thread_id))
                            seg_trained.add(pc)
                bhb_pcs.append(instr.pc)
                if op is Op.CALL_INDIRECT:
                    ops.append((machine.rsb.push, (instr.pc,)))
            elif op is Op.SYSCALL or op is Op.SYSRET:
                mode_changed = True
            elif op is Op.MOV_CR3:
                pcid_changed = True
                # From here on the live PCID is fixed by the instruction,
                # so later TLB keys are static.
                pcid_is_ambient = False
            elif op is Op.VERW:
                if self._verw_clearing:
                    ops.append((machine.mds_buffers.clear, ()))
                    # Only residue deposited after the last clear survives.
                    load_residue = None
                    store_residue = None
            elif op is Op.CLFLUSH:
                # Cache-mutating op: flush the deferred LRU touches first
                # so the removal replays at its recorded position.  Mixed
                # with cache fills the interleaving cannot be replayed
                # (the flush sits outside the batched access stream).
                if cache_fills:
                    clean = False
                cache_flush_seen = True
                ops.extend(touches.values())
                touches.clear()
                ops.append((machine.caches.flush_line, (instr.address,)))
            elif op is Op.L1D_FLUSH:
                if cache_fills:
                    clean = False
                cache_flush_seen = True
                ops.extend(touches.values())
                touches.clear()
                ops.append((machine.msr.write,
                            (IA32_FLUSH_CMD, L1D_FLUSH_BIT)))
            elif op is Op.WRMSR:
                if (instr.msr == IA32_FLUSH_CMD
                        and instr.value & L1D_FLUSH_BIT):
                    if cache_fills:
                        clean = False
                    cache_flush_seen = True
                    ops.extend(touches.values())
                    touches.clear()
                elif (instr.msr == IA32_PRED_CMD
                        and instr.value & PRED_CMD_IBPB):
                    # IBPB rewrites every BTB entry: later in-segment
                    # lookup predicates would be probed against a state
                    # the pre-state check cannot see, and pending trains
                    # must replay before the barrier does.
                    btb_dirty = True
                    if btb_trains:
                        ops.append((btb.train_many, (tuple(btb_trains),)))
                        btb_trains = []
                ops.append((machine.msr.write, (instr.msr, instr.value)))
            elif op is Op.VMENTER or op is Op.VMEXIT:
                mode_changed = True
            machine.execute(instr)

        if needs_push_bound and push_count > sb.depth:
            clean = False
        if tlb_fills and pcid_changed:
            # The batched TLB replay would key post-switch fills with the
            # pre-switch PCID.
            clean = False

        if not clean:
            state.failures += 1
            STATS.interp_fallbacks += 1
            return counters.tsc - tsc_before

        memo = _Memo()
        # Checks all evaluate against the pre-state (replay runs them
        # before any op), so repeats of one (container, key) predicate
        # are redundant.
        seen = set()
        unique = []
        for check in checks:
            ckey = (id(check[0]), check[1], check[2])
            if ckey not in seen:
                seen.add(ckey)
                unique.append(check)
        # Miss-y segments: emit the eviction-headroom / exact-content
        # predicates and the batched access-stream replays, dropping the
        # deferred touches they supersede (the replayed stream reproduces
        # every LRU move in recorded order).
        id_entries = id(entries)
        if tlb_fills:
            value_checks.append(
                (_fits, (entries, tlb.capacity - tlb_fills), True))
            tlb_touches.clear()
            for tkey in [k for k in touches if k[0] == id_entries]:
                del touches[tkey]
            ops.append((_replay_accesses, (tlb, tuple(tlb_addrs))))
        if cache_fills:
            for set_index in l1_fill_sets:
                value_checks.append((tuple, (l1_sets[set_index],),
                                     l1_snapshots[set_index]))
            for l2_index in l2_fill_sets:
                value_checks.append((tuple, (l2_sets[l2_index],),
                                     l2_snapshots[l2_index]))
            for tkey in [k for k in touches if k[0] != id_entries]:
                del touches[tkey]
            ops.append((_replay_accesses,
                        (machine.caches, tuple(cache_addrs))))
        memo.checks = tuple(unique)
        if tlb_page_checks:
            seen_pages = set()
            unique_pages = []
            for pair in tlb_page_checks:
                if pair not in seen_pages:
                    seen_pages.add(pair)
                    unique_pages.append(pair)
            memo.tlb_checks = tuple(unique_pages)
        memo.value_checks = tuple(value_checks)
        # Pre-switch (ambient-PCID) TLB touches replay before any static
        # post-switch touches of the same structure, preserving last-touch
        # order even when the switch lands on the same PCID.
        if tlb_touches:
            ops.append((_touch_tlb_pages, (tlb, tuple(tlb_touches))))
        # Emit the per-structure batches (one replay call each), then the
        # deduplicated LRU touches grouped by container.  All of these
        # target disjoint structures, so their relative order is
        # unobservable; within each batch the recorded order is kept.
        if sb_pushes:
            if len(sb_pushes) == 1:
                ops.append((sb.push, sb_pushes[0]))
            else:
                ops.append((sb.push_many, (tuple(sb_pushes),)))
        if bhb_pcs:
            if len(bhb_pcs) == 1:
                ops.append((machine.bhb.push, (bhb_pcs[0],)))
            else:
                ops.append((machine.bhb.push_many, (tuple(bhb_pcs),)))
        if btb_trains:
            if len(btb_trains) == 1:
                ops.append((btb.train, btb_trains[0]))
            else:
                ops.append((btb.train_many, (tuple(btb_trains),)))
        groups: Dict[int, Tuple[Any, List[Any]]] = {}
        for fn, args in touches.values():
            container = fn.__self__
            grouped = groups.get(id(container))
            if grouped is None:
                groups[id(container)] = (container, [args[0]])
            else:
                grouped[1].append(args[0])
        for container, keys in groups.values():
            if len(keys) == 1:
                ops.append((container.move_to_end, (keys[0],)))
            else:
                ops.append((_touch_many, (container, tuple(keys))))
        memo.ops = tuple(ops)
        memo.cycles = counters.tsc - tsc_before
        memo.bumps = tuple(
            (name, value - events_before.get(name, 0))
            for name, value in counters.events.items()
            if value != events_before.get(name, 0))
        if ledger is not None:
            postings: Dict[Tuple[str, str], int] = {}
            for (layer, mit, prim), value in ledger._entries.items():
                delta = value - ledger_before.get((layer, mit, prim), 0)
                if delta:
                    key2 = (mit, prim)
                    postings[key2] = postings.get(key2, 0) + delta
            memo.postings = tuple((mit, prim, c) for (mit, prim), c
                                  in postings.items())
        memo.load_residue = load_residue
        memo.store_residue = store_residue
        memo.final_mode = machine.mode if mode_changed else None
        memo.final_pcid = tlb.current_pcid if pcid_changed else None
        if len(state.variants) >= MAX_MEMO_VARIANTS:
            # Machine-state phases drift over a long-lived machine (old
            # PCIDs die, working sets migrate): retire the least recently
            # matched variant (hits keep theirs at the front) rather than
            # freezing this guard on stale pins.
            del state.variants[-1]
        state.variants.insert(0, memo)
        STATS.memo_records += 1
        return memo.cycles
