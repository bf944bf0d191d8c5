"""The cycle-accounting machine: executes abstract instruction streams.

:class:`Machine` binds one :class:`~repro.cpu.model.CPUModel` to live
microarchitectural state — caches, TLB, BTB/BHB, RSB, store buffer, the
MDS-leakable buffers, MSRs and performance counters — and executes
:class:`~repro.cpu.isa.Instruction` streams, returning cycle costs.

Two execution paths exist:

* the **committed** path (:meth:`execute` / :meth:`run`) advances the TSC
  and architectural state.  Its one loop, :meth:`run`, executes loads and
  stores itself and every other op through its handler in ``_DISPATCH``;
* the **transient** path (:meth:`_transient_window`) models wrong-path
  execution after a branch misprediction: it costs no committed cycles but
  leaves microarchitectural footprints — cache fills, divider activity,
  MDS buffer residue — which is precisely what every attack in the paper
  observes and every mitigation tries to erase.

The machine is deterministic: all randomness (only the eIBRS periodic-scrub
interval uses any) flows from the seed passed at construction.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import SegmentationFault, UnsupportedFeatureError
from ..obs import leakage as obs_leakage
from ..obs import observers as obs_observers
from ..obs import spans as obs_spans
from ..obs.ledger import CycleLedger
from . import counters as ctr
from . import engine as blockengine
from . import msr as msrdef
from .btb import BranchHistoryBuffer, BranchTargetBuffer
from .buffers import FILL_BUFFER, LOAD_PORT, STORE_BUFFER, MicroarchBuffers
from .condbp import ConditionalPredictor
from .cache import Cache, CacheHierarchy
from .counters import PerfCounters
from .isa import Instruction, Op, SERIALIZING_OPS
from .model import CPUModel
from .modes import Mode
from .msr import IA32_SPEC_CTRL, SPEC_CTRL_IBRS, SPEC_CTRL_STIBP, MSRFile
from .rsb import BENIGN_ENTRY, ReturnStackBuffer
from .storebuffer import StoreBuffer
from .tlb import TLB

# Counters the hot paths bump inline (``events[name] += 1`` is exactly
# ``counters.bump(name)`` for a canonical name).
_RETIRED = ctr.INSTRUCTIONS_RETIRED
_TLB_MISSES = ctr.TLB_MISSES
_L1_MISSES = ctr.L1_MISSES
_STLF_HITS = ctr.STLF_HITS
_STLF_BLOCKED = ctr.STLF_BLOCKED
_BTB_HITS = ctr.BTB_HITS
_BTB_MISSES = ctr.BTB_MISSES
_MISPREDICTED_INDIRECT = ctr.MISPREDICTED_INDIRECT
_VERW_CLEARS = ctr.VERW_CLEARS
_KERNEL_ENTRIES = ctr.KERNEL_ENTRIES
_BTB_FLUSH_ON_ENTRY = ctr.BTB_FLUSH_ON_ENTRY

_LOAD = Op.LOAD

#: The ``_DISPATCH`` entry of LOAD and STORE: ``Machine.run`` executes
#: both inline, so every other op pays one identity test against it.
_MEMORY = object()

#: Retpoline flavors (paper Figure 4).
GENERIC_RETPOLINE = "generic"
AMD_RETPOLINE = "amd"


class Machine:
    """One logical CPU executing abstract instructions with cycle accounting."""

    def __init__(self, cpu: CPUModel, seed: int = 0, microcode_patched: bool = True,
                 engine: Optional[str] = None) -> None:
        self.cpu = cpu
        self.costs = costs = cpu.costs
        # run()'s load/store costs; load latency by level (0 mem, 1 L1, 2 L2).
        self._memory_costs = (costs.store, costs.store_forward, costs.tlb_miss,
                              (costs.load_mem, costs.load_l1, costs.load_l2))
        self.mode = Mode.USER
        self.microcode_patched = microcode_patched

        self.counters = PerfCounters()
        self.msr = MSRFile(
            supports_ibrs=cpu.predictor.supports_ibrs,
            supports_eibrs=cpu.predictor.supports_eibrs,
            supports_ssbd=True,
            arch_capabilities=cpu.arch_capabilities,
        )
        self.btb = BranchTargetBuffer(
            entries=cpu.btb_entries,
            mode_tagged=cpu.predictor.btb_mode_tagged,
            opaque_index=cpu.predictor.btb_opaque_index,
        )
        self.bhb = BranchHistoryBuffer()
        self.cond_predictor = ConditionalPredictor()
        self.rsb = ReturnStackBuffer(
            depth=cpu.rsb_depth,
            underflow_falls_back_to_btb=cpu.predictor.rsb_underflow_uses_btb,
        )
        self.caches = CacheHierarchy(
            l1=Cache(cpu.l1d_kb * 1024, cpu.l1_ways),
            l2=Cache(cpu.l2_kb * 1024, cpu.l2_ways),
        )
        self.tlb = TLB(entries=cpu.tlb_entries, supports_pcid=cpu.supports_pcid)
        self.store_buffer = StoreBuffer(depth=cpu.store_buffer_depth)
        self.mds_buffers = MicroarchBuffers(vulnerable=cpu.vulns.mds)

        # Program memory: code address -> instruction block.  Transient
        # windows launched at an address execute the registered block.
        self.program: Dict[int, List[Instruction]] = {}

        # KPTI state, owned by the kernel model: when True, kernel pages
        # are reachable from user-mode page tables, so a Meltdown-vulnerable
        # part can transiently read them from user mode.
        self.kernel_mapped_in_user = True

        # Retpoline flavor used when an instruction is marked retpoline.
        self.retpoline_variant = GENERIC_RETPOLINE

        # SMT sibling identity: 0 on a standalone machine.  SMTCore sets
        # 1 on the second hyperthread and shares predictor/cache state.
        self.thread_id = 0

        # Instrumentation, set only by attach(): the span tracer whose
        # clock this machine drives (the NullTracer records nothing), the
        # cycle ledger, and the leakage tracer that receives the structure
        # hooks.  Detached, each hook site costs one ``is None`` test.
        self.observers: tuple = ()
        self.obs = obs_spans.NULL_TRACER
        self.ledger = None
        self.hooks = None

        # eIBRS periodic BTB scrub state (paper section 6.2.2).  The
        # scrub interval is the only seed-dependent behavior, so the seed
        # and the count of scrub-eligible kernel entries are all the
        # replica tier (repro.cpu.replicas) needs to decide which replica
        # seeds share this run's execution bit-for-bit.  The generator is
        # built, and the first interval drawn, at the first scrub-eligible
        # entry: most machines never reach one.
        self.seed = seed
        self.scrub_entries = 0
        self._rng: Optional[np.random.Generator] = None
        self._scrub_countdown = 0

        # Wire MSR side effects.
        self.msr.on_ibpb(self._do_ibpb)
        self.msr.on_l1d_flush(self._do_l1d_flush)

        # Last committed load value seen per address is not tracked; the
        # attack demos track data flow themselves.  The machine tracks the
        # last transient load addresses so demos can check the side channel.
        self.transient_loads: List[int] = []

        # Block-compilation engine: an opt-in fast path for run() that
        # memoizes straight-line sequence deltas (see repro.cpu.engine).
        # None, the default, means pure interpretation (--engine=interp).
        self.engine_mode = engine if engine is not None else blockengine.default_engine()
        self.engine = (blockengine.BlockEngine(self)
                       if self.engine_mode == blockengine.ENGINE_BLOCK else None)

        for observer in obs_observers.current_observers():
            self.attach(observer)

    def attach(self, observer) -> None:
        """Adopt ``observer``: the one attach path for instrumentation.

        A :class:`~repro.obs.ledger.CycleLedger` files every TSC advance
        through the counter file; a :class:`~repro.obs.spans.SpanTracer`
        follows this machine's TSC as its trace clock.  A
        :class:`~repro.obs.leakage.LeakageTracer` goes into the
        ``observer`` slot of the store buffer, BTB, RSB and MDS buffers,
        receives the machine's speculation hooks and makes ``run()``
        interpret; a machine takes one tracer, so attaching a second
        raises ``ValueError``.  Every observer then adopts the machine
        through ``bind_machine``; a ledger accounts from the attach
        onward.
        """
        if isinstance(observer, obs_leakage.LeakageTracer):
            if self.hooks is not None:
                raise ValueError("machine already has a leakage tracer")
            self.hooks = observer
            for structure in (self.store_buffer, self.btb, self.rsb,
                              self.mds_buffers):
                structure.observer = observer
        elif isinstance(observer, CycleLedger):
            self.ledger = self.counters.ledger = observer
            if self.engine is not None:
                # Memos recorded without a ledger carry no postings.
                self.engine = blockengine.BlockEngine(self)
        elif isinstance(observer, obs_spans.SpanTracer):
            self.obs = observer
        self.observers += (observer,)
        observer.bind_machine(self)

    # ------------------------------------------------------------------ #
    # MSR side effects
    # ------------------------------------------------------------------ #

    def _do_ibpb(self) -> None:
        self.btb.barrier()
        self.counters.bump(ctr.IBPB_COUNT)

    def _do_l1d_flush(self) -> None:
        self.caches.flush_l1()
        self.counters.bump(ctr.L1D_FLUSHES)

    def _next_scrub_interval(self) -> int:
        low, high = self.cpu.predictor.eibrs_scrub_period
        return int(self._rng.integers(low, high + 1))

    # ------------------------------------------------------------------ #
    # Code registration (for transient windows and the probe)
    # ------------------------------------------------------------------ #

    def register_code(self, address: int, block: Sequence[Instruction]) -> None:
        """Place an instruction block at a code address.

        Transient execution steered to ``address`` (by a poisoned BTB entry
        or an RSB underflow fallback) will execute this block wrong-path.
        """
        if address == 0:
            raise ValueError("address 0 is reserved as the harmless target")
        self.program[address] = list(block)

    # ------------------------------------------------------------------ #
    # Committed execution
    # ------------------------------------------------------------------ #

    def run(self, instructions: Iterable[Instruction]) -> int:
        """Execute a stream on the committed path; returns total cycles.

        The one dispatch loop: each instruction executes, its cycles
        advance the TSC (filed under the instruction's ledger tag when a
        ledger is attached) and ``inst_retired.any`` counts it, so a fault
        mid-stream leaves the TSC, the retired count and the ledger where
        the last completed instruction left them.

        Handlers never read the TSC, the counters or the ledger, so a run
        adds its cycles and retired count, and files a ledger's tally
        (split and tagged per instruction), once, when it ends or faults.
        It adds them per instruction under a leakage tracer or an enabled
        span tracer (their events and instants read the TSC), and on a
        counter file without ``inst_retired.any`` yet (to keep the key
        order per-instruction counting gives).

        Loads and stores execute here.  The first one after any other op
        binds the TLB, cache, store-buffer and MDS state they use, with
        the mode, the memory costs and the store buffer's and MDS buffers'
        ``observer`` slots (SMT siblings share the MDS buffers); the first
        forwarded load reads the SSBD bit.  Only other ops change that
        state, so every other op drops the binding.  Within a run, a
        repeat of the last L1 line (so of its page) skips both lookups,
        and a load of the latest store's line forwards with no store-buffer
        lookup: each is already the most recent entry.  The MDS residue is
        read only by other ops and observers, so a memory run leaves its
        latest load's and store's when it ends, and per op while the
        buffers have an observer.

        With ``--engine=block`` (and no leakage tracer attached),
        concrete multi-instruction sequences route through the
        block engine instead; both paths are bit-identical by construction
        (see repro.cpu.engine).
        """
        engine = self.engine
        if (engine is not None and self.hooks is None
                and instructions.__class__ in (list, tuple)
                and len(instructions) > 1):
            return engine.run(instructions)
        counters = self.counters
        events = counters.events
        ledger = self.ledger
        if ledger is not None:
            splits = ledger._splits
            tags: dict = {}
        per_instruction = (self.hooks is not None or self.obs.enabled
                           or _RETIRED not in events)
        filing = per_instruction or ledger is not None
        total = retired = 0
        bound = False
        try:
            for instr in instructions:
                handler = instr.handler
                if handler is None:
                    handler = _DISPATCH.get(instr.op)
                    if handler is None:  # pragma: no cover - exhaustive over Op
                        raise UnsupportedFeatureError(f"unhandled op {instr.op}")
                    instr.handler = handler
                if handler is not _MEMORY:
                    if bound:
                        bound = False
                        if last_load is not None:
                            residue[FILL_BUFFER] = residue[LOAD_PORT] = (
                                last_load.value or last_load.address, mode)
                        if last_store is not None:
                            residue[STORE_BUFFER] = (
                                last_store.value or last_store.address, mode)
                    cycles = handler(self, instr)
                else:
                    if not bound:
                        bound = True
                        # The memory run's latest load and store are its
                        # MDS residue, left when the run ends.  -1 is no
                        # page or line (addresses are non-negative).
                        last_page = last_line = store_line = -1
                        ssbd = last_load = last_store = None
                        full = False
                        mode = self.mode
                        store_cost, forward_cost, tlb_miss, load_cycles = self._memory_costs
                        tlb = self.tlb
                        tlb_entries, global_pages = tlb._entries, tlb._global_pages
                        tlb_capacity = tlb.capacity
                        pcid = tlb.current_pcid if tlb.supports_pcid else 0
                        l1 = self.caches.l1
                        l1_sets, num_sets, ways = l1._sets, l1.num_sets, l1.ways
                        line_bytes = l1.line_bytes
                        sb = self.store_buffer
                        pending, depth, sb_observer = sb._pending, sb.depth, sb.observer
                        residue = self.mds_buffers._residue
                        buffers_observer = self.mds_buffers.observer
                    # A user-mode load of kernel memory faults before any
                    # state changes (transient ones go through _transient_load).
                    address = instr.address
                    if instr.kernel_address and instr.op is _LOAD and not mode.is_kernel:
                        raise SegmentationFault(address, str(mode))
                    line = address // line_bytes
                    cycles = 0
                    if line != last_line:
                        page = address >> 12
                        if page != last_page:
                            last_page = page
                            if page not in global_pages:
                                key = (pcid, page)
                                if key in tlb_entries:
                                    tlb_entries.move_to_end(key)
                                else:
                                    tlb_entries[key] = True
                                    if len(tlb_entries) > tlb_capacity:
                                        tlb_entries.popitem(False)
                                    events[_TLB_MISSES] = events.get(_TLB_MISSES, 0) + 1
                                    cycles = tlb_miss
                    if instr.op is _LOAD:
                        sb_line = address >> 6
                        forwarded = sb_line == store_line or sb_line in pending
                        if forwarded:
                            if ssbd is None:
                                ssbd = self.msr.ssbd_enabled
                            if ssbd:
                                # SSBD: the load must wait for older store
                                # addresses.
                                events[_STLF_BLOCKED] = events.get(_STLF_BLOCKED, 0) + 1
                                if self.hooks is not None:
                                    self.hooks.on_stlf_blocked(address)
                            else:
                                events[_STLF_HITS] = events.get(_STLF_HITS, 0) + 1
                        # L1, then L2 on a miss; a forwarded load's line
                        # still warms.
                        level = 1
                        if line != last_line:
                            lines = l1_sets[line % num_sets]
                            if line in lines:
                                lines.move_to_end(line)
                            else:
                                lines[line] = True
                                if len(lines) > ways:
                                    lines.popitem(False)
                                level = 2 if self.caches.l2.access(address) else 0
                            last_line = line
                        if forwarded and not ssbd:
                            cycles += forward_cost
                        else:
                            if level != 1:
                                events[_L1_MISSES] = events.get(_L1_MISSES, 0) + 1
                            cycles += load_cycles[level]
                            if forwarded:
                                penalty = self.cpu.ssbd_load_penalty
                                cycles += penalty
                                if ledger is not None:
                                    ledger.add_split(penalty, "ssbd", "stlf_block")
                        if buffers_observer is None:
                            last_load = instr
                        else:
                            value = instr.value or address
                            residue[FILL_BUFFER] = residue[LOAD_PORT] = (value, mode)
                            buffers_observer.residue_load(value, mode)
                    else:
                        cycles += store_cost
                        if line != last_line:  # stores write-allocate
                            lines = l1_sets[line % num_sets]
                            if line in lines:
                                lines.move_to_end(line)
                            else:
                                lines[line] = True
                                if len(lines) > ways:
                                    lines.popitem(False)
                                self.caches.l2.access(address)
                            last_line = line
                        value = instr.value
                        sb_line = address >> 6
                        store_line = sb_line
                        if sb_line in pending:
                            pending.move_to_end(sb_line)
                            pending[sb_line] = value
                        else:  # a full buffer stays full: each new line evicts
                            pending[sb_line] = value
                            if full or len(pending) > depth:
                                full = True
                                pending.popitem(False)
                                if not depth:  # the push evicted its own line
                                    store_line = -1
                        if sb_observer is not None:
                            sb_observer.sb_push(address, value)
                        if buffers_observer is None:
                            last_store = instr
                        else:
                            value = value or address
                            residue[STORE_BUFFER] = (value, mode)
                            buffers_observer.residue_store(value, mode)
                total += cycles
                retired += 1
                if filing:
                    if ledger is not None:
                        if splits:
                            ledger.tally(tags, cycles, instr.attr_tag)
                        elif cycles > 0:
                            tag = instr.attr_tag
                            tags[tag] = tags.get(tag, 0) + cycles
                    if per_instruction:
                        counters.tsc += cycles
                        events[_RETIRED] = events.get(_RETIRED, 0) + 1
        finally:
            if bound:
                if last_load is not None:
                    residue[FILL_BUFFER] = residue[LOAD_PORT] = (
                        last_load.value or last_load.address, mode)
                if last_store is not None:
                    residue[STORE_BUFFER] = (
                        last_store.value or last_store.address, mode)
            if ledger is not None:
                ledger.file(tags)
            if not per_instruction:
                counters.tsc += total
                events[_RETIRED] += retired
        return total

    def prime_block(self, instructions: Sequence[Instruction]) -> None:
        """Pre-compile a known-hot sequence (kernel entry/exit, handler
        bodies) so even its first execution takes the engine fast path."""
        if (self.engine is not None
                and instructions.__class__ in (list, tuple)
                and len(instructions) > 1):
            self.engine.prime(instructions)

    def execute(self, instr: Instruction) -> int:
        """Execute one instruction on the committed path; returns cycles."""
        return self.run((instr,))

    # -- per-op dispatch targets (bound via the module-level _DISPATCH
    #    table; each returns the instruction's cycle cost) --------------- #

    def _op_alu(self, instr: Instruction) -> int:
        return self.costs.alu

    def _op_work(self, instr: Instruction) -> int:
        return instr.value

    def _op_nop(self, instr: Instruction) -> int:
        return self.costs.nop

    def _op_mul(self, instr: Instruction) -> int:
        return self.costs.mul

    def _op_div(self, instr: Instruction) -> int:
        self.counters.bump(ctr.DIVIDER_ACTIVE, self.costs.div)
        return self.costs.div

    def _op_cmov(self, instr: Instruction) -> int:
        return self.costs.cmov

    def _op_pause(self, instr: Instruction) -> int:
        return self.costs.pause

    def _op_clflush(self, instr: Instruction) -> int:
        self.caches.flush_line(instr.address)
        return self.costs.clflush

    def _op_indirect(self, instr: Instruction) -> int:  # CALL_INDIRECT
        cycles = self._execute_indirect(instr)
        self.rsb.push(instr.pc)
        return cycles

    def _op_call(self, instr: Instruction) -> int:
        self.rsb.push(instr.pc)
        self.bhb.push(instr.pc)
        return self.costs.call

    def _op_lfence(self, instr: Instruction) -> int:
        return self.costs.lfence

    def _op_verw(self, instr: Instruction) -> int:
        return self._execute_verw()

    def _op_rsb_fill(self, instr: Instruction) -> int:
        self.rsb.stuff()
        return self.costs.rsb_fill

    def _op_syscall(self, instr: Instruction) -> int:
        return self._execute_syscall_entry()

    def _op_sysret(self, instr: Instruction) -> int:
        previous = self.mode
        self.mode = Mode.GUEST_USER if self.mode.is_guest else Mode.USER
        if self.hooks is not None:
            self.hooks.on_boundary(previous, self.mode)
        return self.costs.sysret

    def _op_swapgs(self, instr: Instruction) -> int:
        return self.costs.swapgs

    def _op_mov_cr3(self, instr: Instruction) -> int:
        invalidated = self.tlb.switch_context(pcid=instr.value)
        return self.costs.swap_cr3 + invalidated // 8  # shootdown refill drag

    def _op_rdmsr(self, instr: Instruction) -> int:
        return self.costs.rdmsr

    def _op_xsave(self, instr: Instruction) -> int:
        return self.costs.xsave

    def _op_xrstor(self, instr: Instruction) -> int:
        return self.costs.xrstor

    def _op_l1d_flush(self, instr: Instruction) -> int:
        self.msr.write(msrdef.IA32_FLUSH_CMD, msrdef.L1D_FLUSH_BIT)
        return self.costs.l1d_flush

    def _op_vmenter(self, instr: Instruction) -> int:
        previous = self.mode
        self.mode = Mode.GUEST_KERNEL
        if self.hooks is not None:
            self.hooks.on_boundary(previous, self.mode)
        return self.costs.vmenter

    def _op_vmexit(self, instr: Instruction) -> int:
        previous = self.mode
        self.mode = Mode.KERNEL
        self.counters.bump(ctr.VM_EXITS)
        if self.hooks is not None:
            self.hooks.on_boundary(previous, self.mode)
        return self.costs.vmexit

    def _op_rdtsc(self, instr: Instruction) -> int:
        return self.costs.rdtsc

    def _op_rdpmc(self, instr: Instruction) -> int:
        return self.costs.rdpmc

    def charge(self, cycles: int, mitigation: Optional[str] = None,
               primitive: Optional[str] = None) -> int:
        """Charge raw cycles (no instruction) with ledger attribution.

        For cost sites that advance the TSC directly — exception-vector
        overhead, lazy-FPU traps, TLB shootdown drag — so their cycles
        stay attributed instead of landing in base/other.
        """
        ledger = self.ledger
        if ledger is None:
            self.counters.add_cycles(cycles)
        else:
            ledger.set_tag(mitigation, primitive)
            self.counters.add_cycles(cycles)
            ledger.clear_tag()
        return cycles

    # -- op helpers ----------------------------------------------------- #

    def _execute_cond_branch(self, instr: Instruction) -> int:
        """A conditional branch through the 2-bit predictor.

        ``instr.value`` is the architectural outcome (1 = taken); a
        mispredicted not-taken branch whose *taken* path has registered
        code runs that path transiently — the Spectre V1 front door.
        """
        self.bhb.push(instr.pc)
        taken = bool(instr.value)
        predicted = self.cond_predictor.update(instr.pc, taken)
        cycles = self.costs.cond_branch
        if predicted != taken:
            cycles += self.costs.mispredict_penalty
            if predicted and instr.target:
                # Wrongly predicted taken: the taken-path body runs
                # transiently (the mistrained bounds check).
                hooks = self.hooks
                if hooks is not None:
                    hooks.window_begin(obs_leakage.SPECTRE_PHT, self.mode,
                                       target=instr.target)
                self._transient_window(instr.target)
                if hooks is not None:
                    hooks.window_end()
        return cycles

    def _indirect_prediction_allowed(self, ibrs: Optional[int] = None) -> bool:
        """Does this CPU consult the BTB for indirect branches right now?

        Encodes the section-6 policy matrix: plain parts always predict;
        IBRS on pre-eIBRS parts (and Zen 2/3) blocks all prediction; Ice
        Lake Client with IBRS set stops predicting in kernel mode.
        ``ibrs`` is the IA32_SPEC_CTRL IBRS bit when the caller has
        already read the MSR; by default it is read here.
        """
        if ibrs is None:
            ibrs = self.msr.ibrs_enabled
        if not ibrs:
            return True
        behavior = self.cpu.predictor
        if behavior.ibrs_blocks_all_prediction and not behavior.supports_eibrs:
            return False
        if behavior.supports_eibrs:
            if behavior.eibrs_blocks_kernel_prediction and self.mode.is_kernel:
                return False
            return True
        return True

    def _execute_indirect(self, instr: Instruction) -> int:
        costs = self.costs
        pc = instr.pc
        self.bhb.push(pc)

        if instr.retpoline:
            # Retpolines never consult or train the BTB; they simply cost
            # more (Table 5) and are unpoisonable by construction.
            extra = self._retpoline_extra()
            if self.ledger is not None:
                self.ledger.add_split(extra, "spectre_v2", "retpoline")
            if self.hooks is not None:
                self.hooks.on_predictor_bypass(pc, "retpoline")
            return costs.indirect_base + extra

        # IBRS, STIBP and eIBRS all derive from IA32_SPEC_CTRL, and
        # nothing on this path writes it or the mode: read them once.
        spec_ctrl = self.msr.read(IA32_SPEC_CTRL)
        ibrs = spec_ctrl & SPEC_CTRL_IBRS
        btb, mode, thread = self.btb, self.mode, self.thread_id
        if ibrs and not self._indirect_prediction_allowed(ibrs):
            # IBRS is suppressing prediction: pay the Table 5 IBRS delta.
            extra = costs.ibrs_extra if costs.ibrs_extra is not None else 0
            if self.ledger is not None:
                self.ledger.add_split(extra, "spectre_v2", "ibrs_no_predict")
            if self.hooks is not None:
                self.hooks.on_predictor_bypass(pc, "ibrs_no_predict")
            btb.train(pc, instr.target, mode, thread)
            return costs.indirect_base + extra

        stibp = spec_ctrl & SPEC_CTRL_STIBP
        predicted = btb.lookup(pc, mode, thread, stibp)
        cycles = costs.indirect_base
        if ibrs and self.msr.supports_eibrs and costs.ibrs_extra:
            cycles += costs.ibrs_extra
            if self.ledger is not None:
                self.ledger.add_split(costs.ibrs_extra, "spectre_v2", "eibrs")
        hooks = self.hooks
        events = self.counters.events
        if predicted is None:
            events[_BTB_MISSES] = events.get(_BTB_MISSES, 0) + 1
            cycles += costs.mispredict_penalty
            if hooks is not None:
                # A tainted entry may exist but be invisible here (mode
                # tagging, STIBP): hardware isolation blocked the redirect.
                hooks.on_redirect_suppressed(pc)
        elif predicted == instr.target:
            events[_BTB_HITS] = events.get(_BTB_HITS, 0) + 1
        else:
            # Mispredict: transient execution runs at the *redirect* target
            # (None on Zen 3, where the probe could never land).
            events[_MISPREDICTED_INDIRECT] = events.get(_MISPREDICTED_INDIRECT, 0) + 1
            cycles += costs.mispredict_penalty
            redirect = btb.redirect_target(pc, mode, thread, stibp)
            if redirect is not None:
                if hooks is not None:
                    hooks.window_begin(obs_leakage.SPECTRE_BTB, mode,
                                       pc=pc, target=redirect)
                self._transient_window(redirect)
                if hooks is not None:
                    hooks.window_end()
            elif hooks is not None:
                hooks.on_redirect_suppressed(pc)
        btb.train(pc, instr.target, mode, thread)
        return cycles

    def _retpoline_extra(self) -> int:
        costs = self.costs
        if self.retpoline_variant == AMD_RETPOLINE:
            if costs.amd_retpoline_extra is None:
                raise UnsupportedFeatureError(
                    f"AMD retpolines are not modelled for {self.cpu.key} "
                    "(the paper only measures them on AMD parts)"
                )
            return costs.amd_retpoline_extra
        return costs.generic_retpoline_extra

    def _execute_ret(self, instr: Instruction) -> int:
        costs = self.costs
        self.bhb.push(instr.pc)
        predicted = self.rsb.pop()
        hooks = self.hooks
        if predicted is None:
            # Underflow: Skylake+ Intel falls back to the BTB (the
            # SpectreRSB surface); others stall.
            if self.rsb.underflow_falls_back_to_btb and self._indirect_prediction_allowed():
                redirect = self.btb.redirect_target(
                    instr.pc, self.mode, thread=self.thread_id,
                    stibp=self.msr.stibp_enabled)
                if redirect is not None and redirect != instr.target:
                    self.counters.bump(ctr.MISPREDICTED_INDIRECT)
                    if hooks is not None:
                        hooks.window_begin(obs_leakage.SPECTRE_RSB,
                                           self.mode, pc=instr.pc,
                                           target=redirect)
                    self._transient_window(redirect)
                    if hooks is not None:
                        hooks.window_end()
            return costs.ret_ + costs.mispredict_penalty
        if predicted == instr.target:
            return costs.ret_
        # Stale or benign entry: mispredicted return.
        self.counters.bump(ctr.MISPREDICTED_INDIRECT)
        if predicted != BENIGN_ENTRY:
            if hooks is not None:
                hooks.window_begin(obs_leakage.SPECTRE_RSB, self.mode,
                                   target=predicted)
            self._transient_window(predicted)
            if hooks is not None:
                hooks.window_end()
        return costs.ret_ + costs.mispredict_penalty

    def _execute_wrmsr(self, instr: Instruction) -> int:
        """MSR writes: cost depends on which MSR (IBPB and L1D flush are
        command MSRs with their own, much larger, calibrated costs)."""
        self.msr.write(instr.msr, instr.value)
        if instr.msr == msrdef.IA32_PRED_CMD and instr.value & msrdef.PRED_CMD_IBPB:
            return self.costs.ibpb
        if instr.msr == msrdef.IA32_FLUSH_CMD and instr.value & msrdef.L1D_FLUSH_BIT:
            return self.costs.l1d_flush
        return self.costs.wrmsr

    def _execute_verw(self) -> int:
        clearing = (
            self.cpu.vulns.mds
            and self.microcode_patched
            and self.costs.verw_clear is not None
        )
        if clearing:
            self.mds_buffers.clear()
            events = self.counters.events
            events[_VERW_CLEARS] = events.get(_VERW_CLEARS, 0) + 1
            return self.costs.verw_clear  # type: ignore[return-value]
        return self.costs.verw_legacy

    def _execute_syscall_entry(self) -> int:
        previous = self.mode
        self.mode = Mode.GUEST_KERNEL if previous.is_guest else Mode.KERNEL
        if self.hooks is not None:
            self.hooks.on_boundary(previous, self.mode)
        events = self.counters.events
        events[_KERNEL_ENTRIES] = events.get(_KERNEL_ENTRIES, 0) + 1
        cycles = self.costs.syscall
        behavior = self.cpu.predictor
        if behavior.eibrs_periodic_scrub and self.msr.eibrs_active:
            self.scrub_entries += 1
            if self._rng is None:
                self._rng = np.random.default_rng(self.seed)
                self._scrub_countdown = self._next_scrub_interval()
            self._scrub_countdown -= 1
            if self._scrub_countdown <= 0:
                self._scrub_countdown = self._next_scrub_interval()
                self.btb.flush()
                events[_BTB_FLUSH_ON_ENTRY] = events.get(_BTB_FLUSH_ON_ENTRY, 0) + 1
                cycles += behavior.eibrs_scrub_extra_cycles
                if self.ledger is not None:
                    self.ledger.add_split(behavior.eibrs_scrub_extra_cycles,
                                          "spectre_v2", "eibrs_scrub")
        return cycles

    # ------------------------------------------------------------------ #
    # Transient (wrong-path) execution
    # ------------------------------------------------------------------ #

    def speculate(self, block: Sequence[Instruction]) -> int:
        """Execute ``block`` transiently, as if down a mispredicted path.

        Public entry point used by the attack demonstrations and the JS
        sandbox model: it is the machine-level analogue of "the processor
        speculatively executed the body of the if statement".  Returns the
        number of instructions that executed before the window closed
        (serializing instruction, blocked access, or window exhaustion).
        No committed cycles are charged.
        """
        hooks = self.hooks
        if hooks is not None:
            hooks.window_begin(obs_leakage.SPECTRE_PHT, self.mode)
        budget = self.cpu.spec_window
        executed = 0
        for instr in block:
            if budget <= 0:
                break
            if instr.op in SERIALIZING_OPS:
                if hooks is not None and instr.op is Op.LFENCE:
                    hooks.on_lfence()
                break
            if instr.op is Op.LOAD and instr.kernel_address and not self.mode.is_kernel:
                # A blocked privileged access also ends the window unless
                # the Meltdown predicate lets it through transiently.
                if not (self.cpu.vulns.meltdown and self.kernel_mapped_in_user):
                    break
            budget -= 1
            executed += 1
            self._execute_transient(instr)
        if hooks is not None:
            hooks.window_end()
        if self.obs.enabled:
            self.obs.instant("cpu.transient_window", origin="speculate",
                             executed=executed, mode=str(self.mode))
        return executed

    def _transient_window(self, target: int) -> None:
        """Run wrong-path execution starting at ``target``.

        Costs no committed cycles (the mispredict penalty already accounts
        for the wasted time) but leaves microarchitectural side effects.
        """
        block = self.program.get(target)
        if not block:
            return
        hooks = self.hooks
        budget = self.cpu.spec_window
        executed = 0
        for instr in block:
            if budget <= 0:
                break
            if instr.op in SERIALIZING_OPS:
                if hooks is not None and instr.op is Op.LFENCE:
                    hooks.on_lfence()
                break  # serializing instructions end the window
            budget -= 1
            executed += 1
            self._execute_transient(instr)
        if self.obs.enabled:
            self.obs.instant("cpu.transient_window", origin="mispredict",
                             target=target, executed=executed,
                             mode=str(self.mode))

    def _execute_transient(self, instr: Instruction) -> None:
        """One wrong-path instruction: its microarchitectural side effects
        only (no committed cycles).  Ops other than divides, loads and
        stores leave no modelled footprint; a masking ``cmov`` is modelled
        by the JIT layer, which simply omits the dangerous load."""
        op = instr.op
        self.counters.bump(ctr.TRANSIENT_INSTRUCTIONS)
        if op is Op.DIV:
            # The probe signal: the divider is busy even on the wrong path.
            self.counters.bump(ctr.DIVIDER_ACTIVE, self.costs.div)
            if self.hooks is not None:
                self.hooks.on_transient_div()
        elif op is Op.LOAD:
            self._transient_load(instr)
        elif op is Op.STORE:
            # Transient stores never reach memory but do leave store-buffer
            # residue visible to MDS sampling.
            self.mds_buffers.deposit_store(instr.value or instr.address, self.mode)

    def _transient_load(self, instr: Instruction) -> None:
        if instr.kernel_address and not self.mode.is_kernel:
            # Meltdown predicate: the transient read succeeds only on a
            # vulnerable part with the kernel mapped into the user page
            # tables (i.e. KPTI off).
            if not (self.cpu.vulns.meltdown and self.kernel_mapped_in_user):
                return
        # The cache side channel.  No miss-counter bumps: PMCs other than
        # the divider only advance at retirement.
        self.caches.access(instr.address)
        self.transient_loads.append(instr.address)
        self.mds_buffers.deposit_load(instr.value or instr.address, self.mode)
        if self.hooks is not None:
            self.hooks.on_transient_load(
                instr.address, bool(instr.kernel_address), self.mode)

    # ------------------------------------------------------------------ #
    # Measurement harness (the paper's rdtsc timed-loop methodology)
    # ------------------------------------------------------------------ #

    def measure(
        self,
        body: Sequence[Instruction],
        iterations: int = 1000,
        warmup: int = 32,
    ) -> float:
        """Average per-iteration cycle cost of ``body``, rdtsc-style.

        Mirrors the paper's section 5 methodology: run the sequence in a
        loop bracketed by timestamp counter reads, subtract the measured
        empty-loop overhead, and average over many iterations.  ``body``
        instructions are re-executed each iteration, so steady-state cache
        and predictor behaviour emerges naturally after ``warmup``.
        """
        loop_overhead = self.costs.cond_branch + self.costs.alu

        for _ in range(warmup):
            self.run(body)

        start = self.counters.tsc
        self.counters.add_cycles(self.costs.rdtsc)
        for _ in range(iterations):
            self.run(body)
            self.counters.add_cycles(loop_overhead)
        self.counters.add_cycles(self.costs.rdtsc)
        elapsed = self.counters.tsc - start

        overhead = 2 * self.costs.rdtsc + iterations * loop_overhead
        return (elapsed - overhead) / iterations

    def read_tsc(self) -> int:
        """Current value of the simulated timestamp counter."""
        return self.counters.tsc


def steady_state(step: Callable[[], int], iterations: int,
                 warmup: int) -> float:
    """Average cycles of ``step()`` in the steady state: ``warmup``
    untimed calls, then the mean over ``iterations`` timed ones (the
    workload runners' loop; :meth:`Machine.measure` times a body)."""
    for _ in range(warmup):
        step()
    total = 0
    for _ in range(iterations):
        total += step()
    return total / iterations


#: Op-indexed dispatch table for the committed path: one dict lookup per
#: instruction instead of a ~30-arm if/elif scan.  Built once at import;
#: entries are plain functions called as handler(machine, instr).
_DISPATCH = {
    Op.ALU: Machine._op_alu,
    Op.WORK: Machine._op_work,
    Op.NOP: Machine._op_nop,
    Op.MUL: Machine._op_mul,
    Op.DIV: Machine._op_div,
    Op.CMOV: Machine._op_cmov,
    Op.PAUSE: Machine._op_pause,
    Op.LOAD: _MEMORY,
    Op.STORE: _MEMORY,
    Op.CLFLUSH: Machine._op_clflush,
    Op.BRANCH_COND: Machine._execute_cond_branch,
    Op.BRANCH_INDIRECT: Machine._execute_indirect,
    Op.CALL_INDIRECT: Machine._op_indirect,
    Op.CALL: Machine._op_call,
    Op.RET: Machine._execute_ret,
    Op.LFENCE: Machine._op_lfence,
    Op.VERW: Machine._op_verw,
    Op.RSB_FILL: Machine._op_rsb_fill,
    Op.SYSCALL: Machine._op_syscall,
    Op.SYSRET: Machine._op_sysret,
    Op.SWAPGS: Machine._op_swapgs,
    Op.MOV_CR3: Machine._op_mov_cr3,
    Op.WRMSR: Machine._execute_wrmsr,
    Op.RDMSR: Machine._op_rdmsr,
    Op.XSAVE: Machine._op_xsave,
    Op.XRSTOR: Machine._op_xrstor,
    Op.L1D_FLUSH: Machine._op_l1d_flush,
    Op.VMENTER: Machine._op_vmenter,
    Op.VMEXIT: Machine._op_vmexit,
    Op.RDTSC: Machine._op_rdtsc,
    Op.RDPMC: Machine._op_rdpmc,
}
