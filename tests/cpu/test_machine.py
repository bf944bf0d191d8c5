"""Machine committed-path execution: costs, state effects, measurement."""

import random

import pytest

from repro.cpu import Machine, Mode, all_cpus, engine, get_cpu
from repro.cpu import counters as ctr
from repro.cpu import isa
from repro.cpu import machine as machine_mod
from repro.cpu import msr as msrdef
from repro.cpu.buffers import STORE_BUFFER
from repro.cpu.machine import AMD_RETPOLINE, GENERIC_RETPOLINE
from repro.cpu.smt import SMTCore
from repro.core.probe import (BRANCH_PC, NOP_TARGET, VICTIM_TARGET, Scenario,
                              SpeculationProbe)
from repro.errors import SegmentationFault, UnsupportedFeatureError
from repro.jsengine import octane
from repro.jsengine.jit import JITCompiler
from repro.kernel import GETPID, Kernel
from repro.mitigations import linux_default
from repro.obs.leakage import LeakageTracer
from repro.obs.ledger import CycleLedger
from repro.obs.spans import SpanTracer
from repro.workloads import parsec
from repro.workloads.lfs import READ_PROFILE

from ..pairs import spelled_out


@pytest.fixture
def m():
    return Machine(get_cpu("broadwell"), seed=0)


def test_alu_and_work_costs(m):
    assert m.execute(isa.Instruction(isa.Op.ALU)) == m.costs.alu
    assert m.execute(isa.work(123)) == 123


def test_tsc_tracks_execution(m):
    before = m.read_tsc()
    m.execute(isa.work(50))
    assert m.read_tsc() == before + 50


def test_div_charges_divider_counter_on_commit(m):
    m.execute(isa.div())
    assert m.counters.read(ctr.DIVIDER_ACTIVE) == m.costs.div


def test_load_latency_by_cache_level(m):
    addr = 0x7000_0000
    cold = m.execute(isa.load(addr))
    warm = m.execute(isa.load(addr))
    assert cold > warm
    assert warm >= m.costs.load_l1  # at least L1 latency


def test_load_tlb_miss_surcharge(m):
    addr = 0x7100_0000
    first = m.execute(isa.load(addr))
    m.caches.flush_line(addr)
    second = m.execute(isa.load(addr))  # TLB warm now, cache cold
    assert first - second == m.costs.tlb_miss


def test_store_then_load_forwards(m):
    addr = 0x7200_0000
    m.execute(isa.store(addr))
    cost = m.execute(isa.load(addr))
    assert cost <= m.costs.store_forward + m.costs.tlb_miss
    assert m.counters.read(ctr.STLF_HITS) == 1


def test_ssbd_blocks_forwarding_and_costs(m):
    m.msr.set_ssbd(True)
    addr = 0x7300_0000
    m.execute(isa.store(addr))
    m.execute(isa.load(addr))  # warm everything
    m.execute(isa.store(addr))
    cost = m.execute(isa.load(addr))
    assert cost >= m.cpu.ssbd_load_penalty
    assert m.counters.read(ctr.STLF_BLOCKED) >= 1


def test_kernel_address_faults_in_user_mode(m):
    assert m.mode is Mode.USER
    with pytest.raises(SegmentationFault):
        m.execute(isa.load(0xFFFF_8880_0000_0000, kernel=True))


def test_kernel_address_ok_in_kernel_mode(m):
    m.mode = Mode.KERNEL
    m.execute(isa.load(0xFFFF_8880_0000_0000, kernel=True))  # no raise


def test_clflush_evicts(m):
    addr = 0x7400_0000
    m.execute(isa.load(addr))
    m.execute(isa.clflush(addr))
    assert not m.caches.probe_l1(addr)


def test_syscall_and_sysret_switch_modes_and_cost(m):
    assert m.execute(isa.syscall_instr()) == m.costs.syscall
    assert m.mode is Mode.KERNEL
    assert m.counters.read(ctr.KERNEL_ENTRIES) == 1
    assert m.execute(isa.sysret_instr()) == m.costs.sysret
    assert m.mode is Mode.USER


def test_guest_syscall_stays_in_guest_modes(m):
    m.mode = Mode.GUEST_USER
    m.execute(isa.syscall_instr())
    assert m.mode is Mode.GUEST_KERNEL
    m.execute(isa.sysret_instr())
    assert m.mode is Mode.GUEST_USER


def test_vmexit_vmenter_modes_and_counter(m):
    m.mode = Mode.GUEST_KERNEL
    m.execute(isa.vmexit())
    assert m.mode is Mode.KERNEL
    assert m.counters.read(ctr.VM_EXITS) == 1
    m.execute(isa.vmenter())
    assert m.mode is Mode.GUEST_KERNEL


def test_mov_cr3_cost_and_pcid_preservation(m):
    m.execute(isa.load(0x7500_0000))
    cost = m.execute(isa.mov_cr3(pcid=0x801))
    assert cost == m.costs.swap_cr3  # PCIDs: no shootdown drag
    m.execute(isa.mov_cr3(pcid=0))
    # Entry still warm after the PCID round trip.
    assert m.tlb.access(0x7500_0000) is True


def test_verw_clearing_cost_on_vulnerable_part(m):
    assert m.execute(isa.verw()) == m.costs.verw_clear
    assert m.counters.read(ctr.VERW_CLEARS) == 1


def test_verw_legacy_on_immune_part():
    m = Machine(get_cpu("zen3"))
    assert m.execute(isa.verw()) == m.costs.verw_legacy
    assert m.counters.read(ctr.VERW_CLEARS) == 0


def test_verw_legacy_without_microcode_patch():
    m = Machine(get_cpu("broadwell"), microcode_patched=False)
    assert m.execute(isa.verw()) == m.costs.verw_legacy


def test_ibpb_wrmsr_cost_and_barrier(m):
    m.btb.train(0x100, 0x2000, Mode.USER)
    cost = m.execute(isa.wrmsr(msrdef.IA32_PRED_CMD, msrdef.PRED_CMD_IBPB))
    assert cost == m.costs.ibpb
    assert m.counters.read(ctr.IBPB_COUNT) == 1
    from repro.cpu.btb import HARMLESS_TARGET
    assert m.btb.lookup(0x100, Mode.USER) == HARMLESS_TARGET


def test_l1d_flush_via_msr(m):
    m.execute(isa.load(0x7600_0000))
    cost = m.execute(isa.wrmsr(msrdef.IA32_FLUSH_CMD, msrdef.L1D_FLUSH_BIT))
    assert cost == m.costs.l1d_flush
    assert not m.caches.probe_l1(0x7600_0000)
    assert m.counters.read(ctr.L1D_FLUSHES) == 1


def test_plain_wrmsr_cost(m):
    assert m.execute(isa.wrmsr(msrdef.IA32_SPEC_CTRL, 0)) == m.costs.wrmsr


def test_rsb_fill_stuffs(m):
    m.execute(isa.rsb_fill())
    assert len(m.rsb) == m.cpu.rsb_depth


def test_call_pushes_rsb(m):
    m.execute(isa.call(pc=0x999))
    assert len(m.rsb) == 1


def test_ret_predicted_correctly_is_cheap(m):
    m.execute(isa.call(pc=0x999))
    cost = m.execute(isa.ret(pc=0xAAA, target=0x999))
    assert cost == m.costs.ret_


def test_ret_with_stale_prediction_pays_penalty(m):
    m.execute(isa.call(pc=0x111))
    cost = m.execute(isa.ret(pc=0xAAA, target=0x999))  # popped 0x111 != 0x999
    assert cost == m.costs.ret_ + m.costs.mispredict_penalty


def test_ret_underflow_pays_penalty(m):
    cost = m.execute(isa.ret(pc=0x999))
    assert cost == m.costs.ret_ + m.costs.mispredict_penalty


def test_retpoline_indirect_costs_table5(m):
    m.retpoline_variant = GENERIC_RETPOLINE
    cost = m.execute(isa.branch_indirect(0x2000, pc=0x100, retpoline=True))
    assert cost == m.costs.indirect_base + m.costs.generic_retpoline_extra


def test_amd_retpoline_rejected_on_intel(m):
    m.retpoline_variant = AMD_RETPOLINE
    with pytest.raises(UnsupportedFeatureError):
        m.execute(isa.branch_indirect(0x2000, pc=0x100, retpoline=True))


def test_amd_retpoline_cost_on_zen2():
    m = Machine(get_cpu("zen2"))
    m.retpoline_variant = AMD_RETPOLINE
    cost = m.execute(isa.branch_indirect(0x2000, pc=0x100, retpoline=True))
    assert cost == m.costs.indirect_base + 0  # Table 5: +0 on Zen 2


def test_indirect_branch_warm_prediction_hits_baseline(m):
    branch = isa.branch_indirect(0x2000, pc=0x100)
    m.execute(branch)                 # trains
    cost = m.execute(branch)          # predicted
    assert cost == m.costs.indirect_base
    assert m.counters.read(ctr.BTB_HITS) == 1


def test_register_code_rejects_address_zero(m):
    with pytest.raises(ValueError):
        m.register_code(0, [isa.nop()])


def test_measure_recovers_single_instruction_cost(m):
    measured = m.measure([isa.lfence()], iterations=200)
    assert measured == pytest.approx(m.costs.lfence, abs=0.5)


def test_measure_subtracts_loop_overhead(m):
    assert m.measure([isa.Instruction(isa.Op.NOP)], iterations=200) == \
        pytest.approx(m.costs.nop, abs=0.5)


def test_run_sums_costs(m):
    total = m.run([isa.work(10), isa.work(20)])
    assert total == 30


# -- the committed load/store path against a reference --------------------- #
#
# Machine.run executes loads, stores and the three runs (load, store and
# store->load pair runs) inline, against structure state bound once per run
# of memory ops.  The reference below spells the same semantics as separate
# public structure calls, with the two cache levels as plain Cache.access
# calls, a run as its loads and stores (isa.expand), and files its cycles
# the way Machine.execute does.

_RUNS = (isa.Op.LOAD_RUN, isa.Op.STORE_RUN, isa.Op.STORE_LOAD)


def _reference_level(caches, address):
    return 1 if caches.l1.access(address) else 2 if caches.l2.access(address) else 0


def _reference_latency(m, level):
    if level == 1:
        return m.costs.load_l1
    m.counters.bump(ctr.L1_MISSES)
    return m.costs.load_l2 if level == 2 else m.costs.load_mem


def _reference_load(m, instr):
    if instr.kernel_address and not m.mode.is_kernel:
        raise SegmentationFault(instr.address, str(m.mode))
    cycles = 0
    if not m.tlb.access(instr.address):
        m.counters.bump(ctr.TLB_MISSES)
        cycles += m.costs.tlb_miss
    if m.store_buffer.match(instr.address):
        if m.msr.ssbd_enabled:
            m.counters.bump(ctr.STLF_BLOCKED)
            if m.hooks is not None:
                m.hooks.on_stlf_blocked(instr.address)
            level = _reference_level(m.caches, instr.address)
            penalty = m.cpu.ssbd_load_penalty
            cycles += _reference_latency(m, level) + penalty
            if m.ledger is not None:
                m.ledger.add_split(penalty, "ssbd", "stlf_block")
        else:
            m.counters.bump(ctr.STLF_HITS)
            _reference_level(m.caches, instr.address)
            cycles += m.costs.store_forward
    else:
        cycles += _reference_latency(m, _reference_level(m.caches, instr.address))
    m.mds_buffers.deposit_load(instr.value or instr.address, m.mode)
    return cycles


def _reference_store(m, instr):
    cycles = m.costs.store
    if not m.tlb.access(instr.address):
        m.counters.bump(ctr.TLB_MISSES)
        cycles += m.costs.tlb_miss
    _reference_level(m.caches, instr.address)
    m.store_buffer.push(instr.address, instr.value)
    m.mds_buffers.deposit_store(instr.value or instr.address, m.mode)
    return cycles


def _reference_execute(m, instr):
    if instr.op in _RUNS:
        return sum(_reference_execute(m, half) for half in spelled_out([instr]))
    if instr.op is isa.Op.LOAD:
        cycles = _reference_load(m, instr)
    elif instr.op is isa.Op.STORE:
        cycles = _reference_store(m, instr)
    else:
        return m.execute(instr)
    m.ledger.set_tag(*instr.attr_tag)
    m.counters.add_cycles(cycles)
    m.ledger.clear_tag()
    m.counters.bump(ctr.INSTRUCTIONS_RETIRED)
    return cycles


def _memory_stream(rng, l1_stride):
    """Loads and stores over lines that collide in one L1 set (L2 hits),
    flushed lines (memory), fresh pages and cr3 switches (TLB misses),
    kernel-mode kernel loads, verw and L1D flushes; store/load pairs on
    one line, one with a store to another line between them, and one in
    kernel mode; pair runs (the JIT's, PARSEC's and the custom
    workload's), and user and kernel-mode load and store runs (a handler's
    working-set sweep), of 1 to 600 lines from lines the stream touches,
    which cross pages and go round the L1 sets; load runs over a line a
    store just left pending, which step and forward (the store's residue
    must survive the step); and a user-mode kernel load run, which
    faults at its first line."""
    addresses = [0x5000_0000 + k * l1_stride for k in range(12)]
    addresses += [0x5100_0000 + 64 * k for k in range(6)]
    stream = []
    for _ in range(400):
        address = rng.choice(addresses)
        roll = rng.randrange(24)
        if roll < 8:
            stream.append(isa.Instruction(isa.Op.LOAD, address=address,
                                          value=rng.choice((0, 7))))
        elif roll < 15:
            stream.append(isa.store(address, value=rng.randrange(3)))
        elif roll == 15:
            stream.append(isa.clflush(address))
        elif roll == 16:
            stream.append(isa.mov_cr3(pcid=rng.randrange(3)))
        elif roll == 17:
            stream.extend([isa.syscall_instr(),
                           isa.load(0xFFFF_8000_0000_0000 + 64 * rng.randrange(4),
                                    kernel=True),
                           isa.sysret_instr()])
        elif roll == 18:
            stream.append(isa.verw())
        elif roll == 19:
            stream.append(isa.l1d_flush())
        elif roll < 22:
            stream.extend([isa.store(address, value=rng.randrange(3)),
                           isa.Instruction(isa.Op.LOAD, address=address + 8,
                                           value=rng.choice((0, 7)))])
        elif roll == 22:
            stream.extend([isa.store(address), isa.store(rng.choice(addresses)),
                           isa.load(address)])
        else:
            kernel = 0xFFFF_8000_0000_0000 + 64 * rng.randrange(4)
            stream.extend([isa.syscall_instr(), isa.store(kernel, value=5),
                           isa.load(kernel, kernel=True), isa.sysret_instr()])
    # One pair on a line _tainted_tracer taints, 63 ending on the last
    # line of a page, 64 and 65 crossing into the next (the 65 ending on
    # a tainted line), 600 going round the L1 sets nine times, and more
    # from seeded lines.
    runs = [(1, addresses[0]), (63, addresses[13]), (64, addresses[13]),
            (65, addresses[2]), (600, addresses[5]), (1, addresses[3])]
    runs += [(count, rng.choice(addresses)) for count in (1, 64, 65, 65)]
    for count, address in runs:
        stream.insert(rng.randrange(len(stream)), isa.store_load(address, count))
    # A load, then a run that crosses into the load's page from the page
    # before it: the run's second page still takes its TLB step.
    at = rng.randrange(len(stream))
    stream[at:at] = [isa.load(0x5201_0000), isa.store_load(0x5201_0000 - 128, 4)]
    # Load and store runs: the pair runs' sizes, user and kernel lines;
    # right after a sysret the machine is in user mode.
    kernel = 0xFFFF_8000_0000_0000
    for run in (isa.load_run, isa.store_run):
        for count, user, line in [(1, addresses[0], 0), (63, addresses[13], 1),
                                  (64, addresses[13], 1), (65, addresses[2], 2),
                                  (600, addresses[5], 0)]:
            stream.insert(rng.randrange(len(stream)), run(user, count))
            at = stream.index(isa.sysret_instr(), rng.randrange(len(stream) // 2)) + 1
            stream[at:at] = [isa.syscall_instr(),
                             run(kernel + 64 * line, count, kernel=True),
                             isa.sysret_instr()]
    # A store, then a load run over its line: three anywhere and one at the
    # end, so the last chunk's run ends with the stepped load run.
    for last in (False, False, False, True):
        address = rng.choice(addresses)
        at = len(stream) if last else rng.randrange(len(stream))
        stream[at:at] = [isa.store(address + 64, value=9), isa.load_run(address, 3)]
    at = stream.index(isa.sysret_instr(), rng.randrange(len(stream) // 2)) + 1
    stream.insert(at, isa.load_run(kernel + 64, 2, kernel=True))
    return stream


def _outcome(call, *args):
    """``call(*args)``, or the address and mode of the fault it raised."""
    try:
        return call(*args)
    except SegmentationFault as fault:
        return (fault.address, fault.mode)


@pytest.mark.parametrize("cpu", [cpu.key for cpu in all_cpus()])
@pytest.mark.parametrize("ssbd", [False, True])
def test_load_store_path_matches_reference(cpu, ssbd):
    machines = []
    for _ in range(2):
        machine = Machine(get_cpu(cpu), seed=3)
        machine.attach(CycleLedger())
        machine.msr.set_ssbd(ssbd)
        machines.append(machine)
    fast, ref = machines
    l1 = fast.caches.l1
    stream = _memory_stream(random.Random(7), l1.num_sets * l1.line_bytes)
    unsplit = set(_RUNS)
    for instr in stream:
        if instr.op in unsplit:
            unsplit.discard(instr.op)  # the first half takes a pending split
            for machine in machines:
                machine.ledger.add_split(2, "spectre_v2", "retpoline")
        assert _outcome(fast.execute, instr) == _outcome(_reference_execute, ref, instr)

    assert fast.read_tsc() == ref.read_tsc()
    assert list(fast.counters.events.items()) == list(ref.counters.events.items())
    assert fast.ledger.paths() == ref.ledger.paths()
    assert list(fast.ledger._entries.items()) == list(ref.ledger._entries.items())
    for mode in Mode:
        assert fast.mds_buffers.sample(mode) == ref.mds_buffers.sample(mode)
    assert list(fast.tlb._entries.items()) == list(ref.tlb._entries.items())
    assert (list(fast.store_buffer._pending.items())
            == list(ref.store_buffer._pending.items()))
    # Every branch of the load path ran.
    blocked = fast.counters.read(ctr.STLF_BLOCKED)
    forwarded = fast.counters.read(ctr.STLF_HITS)
    assert (blocked > 0 and forwarded == 0) if ssbd else (forwarded > 0 and blocked == 0)
    for name in (ctr.L1_MISSES, ctr.TLB_MISSES):
        assert fast.counters.read(name) > 0
    if ssbd:
        assert fast.ledger.rollup("primitive").get("stlf_block", 0) > 0


# -- the one dispatch loop against a per-instruction reference -------------- #
#
# Machine.run holds the per-instruction body: dispatch, the inline load
# and store, the TSC (or ledger) charge and the retired-instruction count.
# The reference below spells that body out with public counter and ledger
# calls, running loads and stores through the reference above and every
# other op through its handler in the dispatch table.

def _reference_run(m, block):
    total = 0
    for instr in spelled_out(block):
        if instr.op is isa.Op.LOAD:
            cycles = _reference_load(m, instr)
        elif instr.op is isa.Op.STORE:
            cycles = _reference_store(m, instr)
        else:
            cycles = machine_mod._DISPATCH[instr.op](m, instr)
        if m.ledger is None:
            m.counters.tsc += cycles
        else:
            m.ledger.set_tag(*instr.attr_tag)
            m.counters.add_cycles(cycles)
            m.ledger.clear_tag()
        m.counters.bump(ctr.INSTRUCTIONS_RETIRED)
        total += cycles
    return total


def _booted(cpu, ledger=False):
    """A machine with a booted kernel."""
    machine = Machine(cpu, seed=3)
    if ledger:
        machine.attach(CycleLedger())
    return machine, Kernel(machine, linux_default(cpu))


def _machine_state(m):
    return {
        "tsc": m.counters.tsc,
        "events": list(m.counters.events.items()),
        "mode": m.mode,
        "pcid": m.tlb.current_pcid,
        "tlb": list(m.tlb._entries.items()),
        "store_buffer": list(m.store_buffer._pending.items()),
        "l1": [(index, list(lines.items()))
               for index, lines in m.caches.l1._sets.items()],
        "l2": [(index, list(lines.items()))
               for index, lines in m.caches.l2._sets.items()],
        "mds": dict(m.mds_buffers._residue),
        "btb": list(m.btb._table.items()),
        "bhb": m.bhb.value,
        "rsb": list(m.rsb._stack),
    }


@pytest.mark.parametrize("ledger", [False, True], ids=["bare", "ledger"])
@pytest.mark.parametrize("cpu", [cpu.key for cpu in all_cpus()])
def test_run_loop_matches_reference(cpu, ledger):
    fast, kernel = _booted(get_cpu(cpu), ledger)
    ref, _ = _booted(get_cpu(cpu), ledger)
    assert _machine_state(fast) == _machine_state(ref)
    blocks = []
    for profile in (GETPID, READ_PROFILE):
        blocks += [kernel._entry, kernel._compiled(profile), kernel._exit]
    jit = JITCompiler(fast, kernel.config)
    blocks.append(jit.compile_iteration(
        octane.SUITE[0].mix, heap_base=octane.HEAP_BASE, cursor=0))
    # A PARSEC runner context-switches its machine to a fresh process, so
    # it runs on a third machine; only its block is used.
    _, parsec_kernel = _booted(get_cpu(cpu))
    blocks.append(parsec.PARSECRunner(parsec_kernel, parsec.SWAPTIONS)
                  .iteration_block())
    for _ in range(2):  # cold, then warm structures
        for block in blocks:
            assert fast.run(block) == _reference_run(ref, block)
            assert _machine_state(fast) == _machine_state(ref)
    if ledger:
        assert fast.ledger.paths() == ref.ledger.paths()
        assert list(fast.ledger._entries.items()) == list(ref.ledger._entries.items())
        fast.ledger.verify()


def test_fault_mid_block_leaves_tsc_and_retired_count_as_reference():
    # Bare, and with a ledger on both machines: a fault files exactly the
    # completed instructions, splits included, in the twin's order.
    fault = isa.load(0xFFFF_8880_0000_0000, kernel=True)
    for ledger in (False, True):
        block = [isa.work(40), isa.load(0x7000_0000), fault, isa.work(10)]
        fast = Machine(get_cpu("broadwell"), seed=0)
        ref = Machine(get_cpu("broadwell"), seed=0)
        if ledger:
            fast.attach(CycleLedger())
            ref.attach(CycleLedger())
        with pytest.raises(SegmentationFault):
            fast.run(block)
        with pytest.raises(SegmentationFault):
            _reference_run(ref, block)
        assert fast.read_tsc() == ref.read_tsc() > 0
        retired = fast.counters.read(ctr.INSTRUCTIONS_RETIRED)
        assert retired == ref.counters.read(ctr.INSTRUCTIONS_RETIRED) == 2
        assert _machine_state(fast) == _machine_state(ref)
        # Both machines have run, so the fast one adds the run's cycles,
        # retired count and residue once; a fault must still leave them.
        block = [isa.work(30), isa.load(0x7100_0000), isa.store(0x7200_0000, value=5),
                 fault, isa.work(10)]
        tsc = fast.read_tsc()
        with pytest.raises(SegmentationFault):
            fast.run(block)
        with pytest.raises(SegmentationFault):
            _reference_run(ref, block)
        assert fast.read_tsc() == ref.read_tsc() > tsc
        retired = fast.counters.read(ctr.INSTRUCTIONS_RETIRED)
        assert retired == ref.counters.read(ctr.INSTRUCTIONS_RETIRED) == 5
        assert fast.mds_buffers._residue[STORE_BUFFER] == (5, Mode.USER)
        assert _machine_state(fast) == _machine_state(ref)
        # A retpoline's split is filed by the run that faults after it.
        block = [isa.work(7, mitigation="pti", primitive="mov_cr3"),
                 isa.branch_indirect(0x2000, pc=0x100, retpoline=True), fault]
        with pytest.raises(SegmentationFault):
            fast.run(block)
        with pytest.raises(SegmentationFault):
            _reference_run(ref, block)
        assert _machine_state(fast) == _machine_state(ref)
        if ledger:
            assert (list(fast.ledger._entries.items())
                    == list(ref.ledger._entries.items()))
            assert fast.ledger.rollup("primitive")["retpoline"] > 0
            assert fast.ledger.verify() == ref.ledger.verify() == fast.read_tsc()


@pytest.mark.parametrize("observer", ["leakage", "spans"])
def test_mid_run_observers_read_the_tsc_of_a_per_instruction_twin(observer):
    # The victim branch bracketed by counter reads files its leakage event
    # (and the span tracer its transient-window instant) after the first
    # rdpmc of the run, so the event carries a TSC that run has already
    # advanced.
    machines = []
    for _ in range(2):
        machine = Machine(get_cpu("broadwell"), seed=0)
        tracer = LeakageTracer() if observer == "leakage" else SpanTracer()
        machine.attach(tracer)
        probe = SpeculationProbe(machine)
        if observer == "leakage":
            tracer.taint_code(VICTIM_TARGET)
        probe._prepare_round(Scenario(Mode.USER, Mode.USER, False))
        machines.append((machine, tracer))
    (fast, fast_tracer), (ref, ref_tracer) = machines
    bracket = (isa.rdpmc(), isa.branch_indirect(NOP_TARGET, pc=BRANCH_PC),
               isa.rdpmc())
    tsc = fast.read_tsc()
    assert fast.run(bracket) == _reference_run(ref, bracket)
    assert _machine_state(fast) == _machine_state(ref)
    if observer == "leakage":
        stamps = [event.tsc for event in fast_tracer.events]
        assert stamps == [event.tsc for event in ref_tracer.events]
    else:
        stamps = [instant[0] for instant in fast_tracer.instants]
        assert stamps == [instant[0] for instant in ref_tracer.instants]
    assert stamps[-1] == tsc + fast.costs.rdpmc


# -- memory runs: the binding and the most-recent shortcut ------------------ #
#
# Machine.run binds the memory state at the first load or store after any
# other op, and treats a repeat of the last page or L1 line as a hit.  The
# chunks below cut one memory stream at seeded points and splice in ops
# that change the bound state between two accesses to one page or line.

def _invalidation_points(address, pcid, ssbd):
    flip = 0 if ssbd else msrdef.SPEC_CTRL_SSBD
    restore = msrdef.SPEC_CTRL_SSBD if ssbd else 0
    return [
        [isa.load(address), isa.mov_cr3(pcid=pcid), isa.load(address + 8)],
        [isa.store(address), isa.clflush(address), isa.load(address)],
        [isa.load(address), isa.l1d_flush(), isa.store(address)],
        [isa.store(address), isa.wrmsr(msrdef.IA32_SPEC_CTRL, flip),
         isa.load(address), isa.wrmsr(msrdef.IA32_SPEC_CTRL, restore),
         isa.load(address)],
        # The store's residue must reach the buffers before verw clears them.
        [isa.store(address), isa.verw(), isa.load(address)],
    ]


def _memory_chunks(machine, ssbd):
    """The memory stream in seeded chunks of 1-40 instructions; every
    other chunk has an invalidation point spliced into its middle."""
    l1 = machine.caches.l1
    stride = l1.num_sets * l1.line_bytes
    stream = _memory_stream(random.Random(7), stride)
    rng = random.Random(11)
    chunks = []
    start = 0
    while start < len(stream):
        size = rng.randint(1, 40)
        chunk = stream[start:start + size]
        start += size
        if len(chunks) % 2 == 0:
            address = 0x5000_0000 + stride * rng.randrange(12)
            points = _invalidation_points(address, 8 + len(chunks), ssbd)
            middle = len(chunk) // 2
            chunk[middle:middle] = points[len(chunks) // 2 % len(points)]
        chunks.append(chunk)
    return chunks


def _tainted_tracer(machine):
    l1 = machine.caches.l1
    stride = l1.num_sets * l1.line_bytes
    tracer = LeakageTracer()
    for address in (0x5000_0000, 0x5000_0000 + 3 * stride, 0x5100_0040):
        tracer.taint_address(address)
    return tracer


def _tracer_state(tracer):
    return (tracer.state(), tracer._lines, tracer._sb_lines, tracer._residue)


# The store-buffer depth: the CPU's own (None), 1 and 0, set on both
# twins; at depth 0 a store evicts its own line, so nothing forwards.
_OBSERVER_DEPTHS = [(observer, depth) for depth in (None, 1, 0)
                    for observer in ("bare", "ledger", "tracer")]


@pytest.mark.parametrize("observer, depth", _OBSERVER_DEPTHS,
                         ids=[observer if depth is None else f"{observer}-depth{depth}"
                              for observer, depth in _OBSERVER_DEPTHS])
@pytest.mark.parametrize("ssbd", [False, True], ids=["ssbd_off", "ssbd_on"])
@pytest.mark.parametrize("cpu", [cpu.key for cpu in all_cpus()])
def test_memory_runs_match_reference(cpu, ssbd, observer, depth):
    machines = []
    for _ in range(2):
        machine = Machine(get_cpu(cpu), seed=3)
        machine.msr.set_ssbd(ssbd)
        if depth is not None:
            machine.store_buffer.depth = depth
        if observer == "ledger":
            machine.attach(CycleLedger())
        elif observer == "tracer":
            machine.attach(_tainted_tracer(machine))
        machines.append(machine)
    fast, ref = machines
    residue_seen = False
    for chunk in _memory_chunks(fast, ssbd):
        if observer == "ledger" and chunk[0].op in _RUNS:
            for machine in machines:  # the run's first half takes it
                machine.ledger.add_split(2, "spectre_v2", "retpoline")
        assert _outcome(fast.run, chunk) == _outcome(_reference_run, ref, chunk)
        assert _machine_state(fast) == _machine_state(ref)
        if observer == "tracer":
            assert _tracer_state(fast.hooks) == _tracer_state(ref.hooks)
            residue_seen = residue_seen or bool(fast.hooks._residue)
    if observer == "ledger":
        assert fast.ledger.paths() == ref.ledger.paths()
        assert list(fast.ledger._entries.items()) == list(ref.ledger._entries.items())
        fast.ledger.verify()
    if observer == "tracer":
        assert residue_seen
    for name in (ctr.L1_MISSES, ctr.TLB_MISSES):
        assert fast.counters.read(name) > 0
    # The SSBD flips give both store-to-load outcomes on either setting,
    # except at depth 0, where no load may forward (nor be blocked).
    for name in (ctr.STLF_BLOCKED, ctr.STLF_HITS):
        assert (fast.counters.read(name) > 0) is (depth != 0)


@pytest.mark.parametrize("ssbd", [False, True], ids=["ssbd_off", "ssbd_on"])
def test_stepped_pair_run_keeps_the_ledger_order_of_its_run(ssbd):
    # Under an enabled span tracer a pair run steps through its halves in a
    # run of their own; what its enclosing run tallied before it is filed
    # first, so the ledger entries keep the per-instruction order.
    machines = []
    for _ in range(2):
        machine = Machine(get_cpu("zen3"), seed=0)
        machine.attach(CycleLedger())
        machine.attach(SpanTracer())
        machine.msr.set_ssbd(ssbd)
        machines.append(machine)
    fast, ref = machines
    block = [isa.work(9, mitigation="pti", primitive="mov_cr3"),
             isa.store_load(0x6000_0000, 70), isa.load(0x6000_0040),
             isa.work(4, mitigation="mds", primitive="verw")]
    for _ in range(2):
        assert fast.run(block) == _reference_run(ref, block)
        assert _machine_state(fast) == _machine_state(ref)
    assert list(fast.ledger._entries.items()) == list(ref.ledger._entries.items())
    assert fast.counters.read(ctr.STLF_BLOCKED if ssbd else ctr.STLF_HITS) == 140


@pytest.mark.parametrize("ssbd", [False, True], ids=["ssbd_off", "ssbd_on"])
def test_first_forwarding_pair_run_keeps_the_counter_key_order(ssbd):
    # The run's first line is on a page the TLB holds with no miss counted,
    # the rest on a new page: written out, the first load's forward is
    # counted before that page's TLB miss, and the counters keep that order.
    machines = []
    for _ in range(2):
        machine = Machine(get_cpu("zen3"), seed=0)
        machine.msr.set_ssbd(ssbd)
        machine.execute(isa.work(5))
        machine.tlb.access(0x6000_0000)
        machines.append(machine)
    fast, ref = machines
    block = [isa.store_load(0x6000_0000 + 4096 - 128, 4)]
    assert fast.run(block) == _reference_run(ref, block)
    assert _machine_state(fast) == _machine_state(ref)
    assert list(fast.counters.events)[1:] == [
        ctr.STLF_BLOCKED if ssbd else ctr.STLF_HITS, ctr.TLB_MISSES]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "tlb_warm"])
def test_load_run_enters_a_fresh_counter_file_in_spelled_out_order(warm):
    # Per page, the TLB step comes before that page's L1 touches: with the
    # first page's translation warm, written out the first load's L1 miss
    # is counted before the second page's TLB miss, and cold after it.
    machines = []
    for _ in range(2):
        machine = Machine(get_cpu("zen3"), seed=0)
        machine.execute(isa.work(5))
        if warm:
            machine.tlb.access(0x6000_0000)
        machines.append(machine)
    fast, ref = machines
    block = [isa.load_run(0x6000_0000 + 4096 - 128, 4)]
    assert fast.run(block) == _reference_run(ref, block)
    assert _machine_state(fast) == _machine_state(ref)
    order = [ctr.L1_MISSES, ctr.TLB_MISSES]
    assert list(fast.counters.events)[1:] == (order if warm else order[::-1])


@pytest.mark.parametrize("run", [isa.load_run, isa.store_run, isa.store_load],
                         ids=["load_run", "store_run", "store_load"])
def test_transient_path_runs_a_run_as_its_halves(run):
    # speculate() and register_code() write a run out: it executes (and
    # counts against the window) as its loads and stores, leaving their
    # footprint (L1 lines for the loads, MDS residue for both).
    fast, ref, fresh = (Machine(get_cpu("broadwell"), seed=0) for _ in range(3))
    block = [run(0x6000_0000, 2)]
    halves = spelled_out(block)
    assert fast.speculate(block) == ref.speculate(halves) == len(halves)
    assert _machine_state(fast) == _machine_state(ref)
    assert fast.mds_buffers._residue != fresh.mds_buffers._residue
    assert fast.transient_loads == ref.transient_loads
    fast.register_code(0x9000, block)
    assert fast.program[0x9000] == halves


@pytest.mark.parametrize("cpu", [cpu.key for cpu in all_cpus() if cpu.smt])
def test_sibling_memory_runs_reach_the_tracer_on_thread0(cpu):
    # SMT siblings share the MDS buffers, so thread 1's residue reaches a
    # tracer attached to thread 0 through the buffers' observer slot;
    # thread 1 itself has no hooks.
    tracers = []
    threads = []
    for _ in range(2):
        core = SMTCore(get_cpu(cpu), seed=3)
        tracer = _tainted_tracer(core.thread0)
        core.thread0.attach(tracer)
        tracers.append(tracer)
        threads.append(core.thread1)
    fast, ref = threads
    assert fast.hooks is None
    residue_seen = False
    for chunk in _memory_chunks(fast, ssbd=False):
        assert _outcome(fast.run, chunk) == _outcome(_reference_run, ref, chunk)
        assert _machine_state(fast) == _machine_state(ref)
        assert _tracer_state(tracers[0]) == _tracer_state(tracers[1])
        residue_seen = residue_seen or bool(tracers[0]._residue)
    assert residue_seen


def test_interpreter_is_the_default_engine():
    assert Machine(get_cpu("broadwell")).engine is None
    with engine.use_engine("block"):
        assert isinstance(Machine(get_cpu("broadwell")).engine,
                          engine.BlockEngine)
