"""The custom workload builder."""

import pytest

from repro.cpu import get_cpu, isa
from repro.cpu import Machine
from repro.errors import WorkloadError
from repro.kernel import HandlerProfile
from repro.mitigations import MitigationConfig, SSBDMode, linux_default
from repro.workloads.custom import CUSTOM_HEAP, WorkloadBuilder

from ..pairs import spelled_out

RECV = HandlerProfile("custom_recv", work_cycles=2000, loads=10, stores=4,
                      indirect_branches=6, copy_bytes=256)


def webserver():
    return (WorkloadBuilder("webserver")
            .user_work(3000)
            .syscall(RECV)
            .syscall(RECV)
            .store_load_pairs(10))


def test_empty_workload_rejected():
    with pytest.raises(WorkloadError):
        WorkloadBuilder("empty").build_runner(
            Machine(get_cpu("zen")), MitigationConfig.all_off())


def test_negative_user_work_rejected():
    with pytest.raises(WorkloadError):
        WorkloadBuilder("w").user_work(-1)


def test_bad_ctx_period_rejected():
    with pytest.raises(WorkloadError):
        WorkloadBuilder("w").context_switch_every(0)


def test_builder_is_fluent():
    builder = WorkloadBuilder("w")
    assert builder.user_work(10) is builder
    assert builder.streaming_loads(5) is builder


def test_measure_returns_positive_cycles():
    cpu = get_cpu("zen2")
    assert webserver().measure(cpu, MitigationConfig.all_off()) > 3000


def test_overhead_reflects_boundary_crossings():
    """A syscall-heavy custom workload pays on Broadwell; a pure-compute
    one does not."""
    cpu = get_cpu("broadwell")
    config = linux_default(cpu)
    syscall_heavy = webserver().overhead_percent(cpu, config)
    compute_only = (WorkloadBuilder("compute").user_work(20000)
                    .overhead_percent(cpu, config))
    assert syscall_heavy > 10
    assert abs(compute_only) < 1


def test_context_switch_period_fires():
    from repro.cpu import counters as ctr
    builder = webserver().context_switch_every(4)
    runner = builder.build_runner(Machine(get_cpu("zen")),
                                  MitigationConfig.all_off())
    for _ in range(8):
        runner.run_iteration()
    # Initial placement + 2 per period boundary (out and back).
    assert runner.machine.counters.read(ctr.CONTEXT_SWITCHES) == 1 + 2 * 2


def test_process_attributes_feed_the_ssbd_policy():
    """A seccomp'd custom workload pays SSBD under pre-5.16 policy."""
    cpu = get_cpu("zen3")
    config = MitigationConfig(ssbd_mode=SSBDMode.SECCOMP)

    def cost(seccomp):
        builder = (WorkloadBuilder("sandboxed")
                   .user_work(2000)
                   .store_load_pairs(60)
                   .process(uses_seccomp=seccomp))
        return builder.measure(cpu, config)

    assert cost(True) > cost(False) * 1.05


def test_streaming_loads_touch_distinct_lines():
    builder = WorkloadBuilder("reader").streaming_loads(8)
    runner = builder.build_runner(Machine(get_cpu("zen")),
                                  MitigationConfig.all_off())
    first = runner.run_iteration()
    second = runner.run_iteration()  # different cursor -> cold lines again
    assert first > 0 and second > 0


def test_page_fault_step_uses_the_exception_path():
    from repro.kernel import EXCEPTION_EXTRA_CYCLES
    cpu = get_cpu("zen")
    fault_wl = (WorkloadBuilder("faulty").page_fault(RECV))
    sys_wl = (WorkloadBuilder("sysy").syscall(RECV))
    fault_cost = fault_wl.measure(cpu, MitigationConfig.all_off(),
                                  iterations=10, warmup=3)
    sys_cost = sys_wl.measure(cpu, MitigationConfig.all_off(),
                              iterations=10, warmup=3)
    assert fault_cost - sys_cost == pytest.approx(EXCEPTION_EXTRA_CYCLES,
                                                  abs=2)


@pytest.mark.parametrize("seccomp", [False, True], ids=["ssbd_off", "ssbd_on"])
def test_store_load_step_runs_the_spelled_out_pairs(seccomp, monkeypatch):
    # The stl step's runs, written out, are its pairs on the custom heap's
    # 512-line ring (cursors 0, 300, 600 and 900 wrap it), and they cost
    # what the spelled-out pairs cost on a twin machine.
    builder = (WorkloadBuilder("stl").store_load_pairs(300)
               .process(uses_seccomp=seccomp))
    config = MitigationConfig(ssbd_mode=SSBDMode.SECCOMP)
    fast, ref = (builder.build_runner(Machine(get_cpu("zen3")), config)
                 for _ in range(2))
    blocks = []
    run = ref.machine.run

    def run_spelled_out(block):
        blocks.append(spelled_out(block))
        return run(blocks[-1])

    monkeypatch.setattr(ref.machine, "run", run_spelled_out)
    for cursor in (0, 300, 600, 900):
        assert fast.run_iteration() == ref.run_iteration()
        expected = []
        for i in range(300):
            address = CUSTOM_HEAP + 64 * ((cursor + i) % 512)
            expected += (isa.store(address), isa.load(address))
        assert blocks[-1] == expected
    for machine in (fast.machine, ref.machine):
        assert machine.msr.ssbd_enabled is seccomp
    assert fast.machine.counters.tsc == ref.machine.counters.tsc
    assert fast.machine.counters.events == ref.machine.counters.events


def _memory_state(machine):
    # TLB keys are (pcid, page); each twin's process has its own PCID.
    return (machine.counters.tsc, list(machine.counters.events.items()),
            [page for _, page in machine.tlb._entries],
            [(index, list(lines.items()))
             for index, lines in machine.caches.l1._sets.items()],
            [(index, list(lines.items()))
             for index, lines in machine.caches.l2._sets.items()],
            dict(machine.mds_buffers._residue))


def test_streaming_loads_step_runs_the_per_load_executes(monkeypatch):
    # The loads step is one run of load runs, written out its loads on the
    # custom heap's 4096-line streaming ring (cursors 0, 1500, 3000 and
    # 4500 wrap it); a twin machine executing each load on its own ends
    # with the same TSC, counters, TLB and L1 order and MDS residue.
    builder = WorkloadBuilder("stream").streaming_loads(1500)
    config = linux_default(get_cpu("zen3"))
    fast, ref = (builder.build_runner(Machine(get_cpu("zen3")), config)
                 for _ in range(2))
    loads = []
    run = ref.machine.run

    def execute_each(block):
        loads[:] = spelled_out(block)
        return sum(run((load,)) for load in loads)

    monkeypatch.setattr(ref.machine, "run", execute_each)
    for cursor in (0, 1500, 3000, 4500):
        assert fast.run_iteration() == ref.run_iteration()
        assert loads == [isa.load(CUSTOM_HEAP + (1 << 22) + 64 * ((cursor + i) % 4096))
                         for i in range(1500)]
        assert _memory_state(fast.machine) == _memory_state(ref.machine)
