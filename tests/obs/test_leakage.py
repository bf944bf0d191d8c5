"""Leakage tracer: taint propagation, mitigation clears, transport."""

from repro.core.probe import _policy_machine
from repro.cpu import Machine, Mode, engine, get_cpu, isa
from repro.fuzz import generate_program
from repro.obs import leakage as lk
from repro.obs.leakage import LeakageTracer
from repro.obs.observers import current_observers, use_observers

SECRET = 0x1000
DEST = 0x2000
BRANCH_PC = 0x50_0000
PAD = 0x61_0000          # attacker-controlled landing pad
NOP_PAD = 0x62_0000


def traced_machine(cpu_key="broadwell", policy="test"):
    machine = Machine(get_cpu(cpu_key), seed=0)
    tracer = LeakageTracer(policy=policy)
    machine.attach(tracer)
    return machine, tracer


def train(machine, target, rounds=8):
    for _ in range(rounds):
        machine.execute(isa.branch_indirect(target, pc=BRANCH_PC))


# --------------------------------------------------------------------------- #
# Taint propagation
# --------------------------------------------------------------------------- #

def test_store_to_load_forwarding_propagates_taint():
    machine, tracer = traced_machine()
    tracer.taint_address(SECRET)
    assert not tracer.is_tainted(DEST)
    # Storing the secret value taints the destination line...
    machine.store_buffer.push(DEST, value=SECRET)
    assert tracer.is_tainted(DEST)
    # ...and a speculative store bypass against it is a v4 leak.
    assert machine.store_buffer.speculative_bypass_possible(DEST, ssbd=False)
    assert tracer.count(lk.CACHE_SET) == 1
    event = tracer.events[0]
    assert event.primitive == lk.SPECTRE_STL
    assert event.cpu == "broadwell"
    assert event.policy == "test"


def test_stale_secret_still_leaks_under_a_clean_store():
    machine, tracer = traced_machine()
    tracer.taint_address(SECRET)
    machine.store_buffer.push(DEST, value=SECRET)
    # A younger clean store does NOT launder the line: the v4 bypass
    # observes the *stale* value, which is still the secret.
    machine.store_buffer.push(DEST, value=0)
    machine.store_buffer.speculative_bypass_possible(DEST, ssbd=False)
    assert tracer.count(lk.CACHE_SET) == 1


def test_drain_clears_pending_store_taint():
    machine, tracer = traced_machine()
    tracer.taint_address(SECRET)
    machine.store_buffer.push(DEST, value=SECRET)
    machine.store_buffer.drain()
    # A fresh clean store to a clean line is not an observable bypass.
    machine.store_buffer.push(0x9000, value=0)
    assert machine.store_buffer.speculative_bypass_possible(0x9000,
                                                            ssbd=False)
    assert tracer.total_events() == 0


def test_untraced_machine_has_no_observers():
    machine = Machine(get_cpu("broadwell"), seed=0)
    assert machine.hooks is None
    assert machine.store_buffer.observer is None
    assert machine.btb.observer is None
    assert machine.rsb.observer is None
    assert machine.mds_buffers.observer is None


def test_ambient_tracer_adopted_at_construction():
    tracer = LeakageTracer()
    with use_observers(tracer):
        machine = Machine(get_cpu("zen3"), seed=0)
        assert machine.hooks is tracer
        assert machine.btb.observer is tracer
        assert tracer.cpu_model == "zen3"
    assert current_observers() == ()
    assert Machine(get_cpu("zen3"), seed=0).hooks is None


def _block_engine_counts(traced):
    """Run generated program 7 twice under ``--engine block``; returns
    the engine's (block hits, interpreter fallbacks)."""
    program = generate_program(7)
    with engine.use_engine(engine.ENGINE_BLOCK):
        with use_observers(LeakageTracer() if traced else None):
            machine, retpoline = _policy_machine(get_cpu("broadwell"),
                                                 "default", 11)
        program.install(machine, retpoline=retpoline)
        stream = list(program.instructions(retpoline=retpoline))
        assert machine.engine is not None
        engine.STATS.reset()
        machine.run(stream)
        machine.run(stream)
    return engine.STATS.block_hits, engine.STATS.interp_fallbacks


def test_attached_tracer_forces_interp_fallback():
    """Machine.run skips the block engine while a tracer is attached;
    the same stream untraced does replay through it."""
    assert _block_engine_counts(traced=True) == (0, 0)
    assert _block_engine_counts(traced=False)[0] > 0


# --------------------------------------------------------------------------- #
# Tainted windows: BTB steering, divider sink, lfence suppression
# --------------------------------------------------------------------------- #

def test_tainted_btb_redirect_files_port_timing_event():
    machine, tracer = traced_machine()
    tracer.taint_code(PAD)
    machine.register_code(PAD, [isa.div()])
    train(machine, PAD)
    machine.execute(isa.branch_indirect(NOP_PAD, pc=BRANCH_PC))
    assert tracer.count(lk.PORT_TIMING) == 1
    assert tracer.events[-1].primitive == lk.SPECTRE_BTB


def test_lfence_in_tainted_window_blocks_and_attributes():
    machine, tracer = traced_machine()
    tracer.taint_code(PAD)
    machine.register_code(PAD, [isa.lfence(), isa.div()])
    train(machine, PAD)
    machine.execute(isa.branch_indirect(NOP_PAD, pc=BRANCH_PC))
    assert tracer.count(lk.PORT_TIMING) == 0
    assert tracer.blocked.get("spectre_v1/lfence") == 1


def test_ibpb_clears_tainted_btb_entry():
    machine, tracer = traced_machine()
    tracer.taint_code(PAD)
    machine.register_code(PAD, [isa.div()])
    train(machine, PAD)
    machine.btb.barrier()
    assert tracer.blocked.get("spectre_v2/ibpb") == 1
    machine.execute(isa.branch_indirect(NOP_PAD, pc=BRANCH_PC))
    assert tracer.count(lk.PORT_TIMING) == 0


def test_rsb_stuffing_clears_tainted_return_predictions():
    machine, tracer = traced_machine()
    tracer.taint_code(PAD)
    machine.rsb.push(PAD)
    machine.rsb.stuff()
    assert tracer.blocked.get("spectre_v2/rsb_fill") == 1
    # The stuffed RSB holds only benign entries now.
    machine.rsb.push(NOP_PAD)
    machine.rsb.stuff()
    assert tracer.blocked.get("spectre_v2/rsb_fill") == 1


# --------------------------------------------------------------------------- #
# MDS residue: verw clearing, verw-less boundary events
# --------------------------------------------------------------------------- #

def test_verw_clears_tainted_residue_with_attribution():
    machine, tracer = traced_machine()
    tracer.taint_address(SECRET)
    machine.mode = Mode.KERNEL
    machine.mds_buffers.deposit_load(SECRET, Mode.KERNEL)
    machine.execute(isa.verw())
    # fill buffer + load port both held tainted residue.
    assert tracer.blocked.get("mds/verw") == 2
    assert tracer.count(lk.BUFFER_RESIDUE) == 0


def test_verwless_boundary_crossing_files_residue_event():
    machine, tracer = traced_machine()
    tracer.taint_address(SECRET)
    machine.execute(isa.syscall_instr())
    assert machine.mode is Mode.KERNEL
    machine.mds_buffers.deposit_load(SECRET, Mode.KERNEL)
    machine.execute(isa.sysret_instr())
    assert machine.mode is Mode.USER
    assert tracer.count(lk.BUFFER_RESIDUE) == 1
    event = tracer.events[-1]
    assert event.primitive == lk.MDS_BUFFER
    assert event.boundary == "kernel->user"
    assert "fill_buffer" in event.sink


def test_immune_part_files_no_residue_event():
    machine, tracer = traced_machine("ice_lake_client")
    assert not machine.cpu.vulns.mds
    tracer.taint_address(SECRET)
    machine.execute(isa.syscall_instr())
    machine.mds_buffers.deposit_load(SECRET, Mode.KERNEL)
    machine.execute(isa.sysret_instr())
    assert tracer.count(lk.BUFFER_RESIDUE) == 0


# --------------------------------------------------------------------------- #
# Aggregation and transport
# --------------------------------------------------------------------------- #

def test_state_merge_matches_single_tracer():
    machine_a, tracer_a = traced_machine()
    tracer_a.taint_address(SECRET)
    machine_a.store_buffer.push(DEST, value=SECRET)
    machine_a.store_buffer.speculative_bypass_possible(DEST, ssbd=False)

    machine_b, tracer_b = traced_machine("zen2")
    tracer_b.taint_code(PAD)
    machine_b.register_code(PAD, [isa.div()])
    train(machine_b, PAD)
    machine_b.execute(isa.branch_indirect(NOP_PAD, pc=BRANCH_PC))
    # The victim execute retrained the entry to the harmless target;
    # re-poison it so the barrier has a tainted entry to clear.
    train(machine_b, PAD)
    machine_b.btb.barrier()

    merged = LeakageTracer(policy="merge")
    merged.merge_state(tracer_a.state())
    merged.merge_state(tracer_b.state())
    assert merged.total_events() == (tracer_a.total_events()
                                     + tracer_b.total_events())
    assert merged.count(lk.CACHE_SET) == 1
    assert merged.count(lk.PORT_TIMING) >= 1
    assert merged.blocked.get("spectre_v2/ibpb") == 1
    summary = merged.summary()
    assert summary.events == merged.total_events()
    assert summary.blocked == merged.blocked


def test_report_lists_paths_and_attributions():
    machine, tracer = traced_machine()
    tracer.taint_address(SECRET)
    machine.store_buffer.push(DEST, value=SECRET)
    machine.store_buffer.speculative_bypass_possible(DEST, ssbd=False)
    text = tracer.report()
    assert "LEAK" in text
    assert lk.SPECTRE_STL in text
