"""PARSEC workloads: default ~zero overhead, SSBD penalties (Figure 5)."""

import pytest

from repro.cpu import Machine, get_cpu, isa
from repro.kernel import Kernel
from repro.mitigations import MitigationConfig, SSBDMode, linux_default
from repro.workloads.parsec import (
    BODYTRACK,
    FACESIM,
    HEAP_BASE,
    SUITE,
    SWAPTIONS,
    PARSECRunner,
    get_workload,
    run_workload,
)

from ..pairs import spelled_out


def test_suite_is_the_paper_trio():
    assert {w.name for w in SUITE} == {"swaptions", "facesim", "bodytrack"}


def test_get_workload_unknown():
    with pytest.raises(KeyError):
        get_workload("blackscholes")


def test_working_set_ordering():
    assert SWAPTIONS.working_set_kb < BODYTRACK.working_set_kb < \
        FACESIM.working_set_kb


def test_default_mitigations_are_nearly_free(every_cpu):
    """Section 4.5: within a fraction of a percent, never above 2%."""
    base = run_workload(Machine(every_cpu, seed=1), MitigationConfig.all_off(),
                        SWAPTIONS, iterations=20, warmup=5)
    full = run_workload(Machine(every_cpu, seed=1), linux_default(every_cpu),
                        SWAPTIONS, iterations=20, warmup=5)
    overhead = full / base - 1
    assert abs(overhead) < 0.02, every_cpu.key


def test_forced_ssbd_slows_swaptions_substantially():
    cpu = get_cpu("zen3")
    base = run_workload(Machine(cpu, seed=1), linux_default(cpu), SWAPTIONS,
                        force_ssbd=False, iterations=20, warmup=5)
    ssbd = run_workload(Machine(cpu, seed=1), linux_default(cpu), SWAPTIONS,
                        force_ssbd=True, iterations=20, warmup=5)
    assert ssbd / base - 1 > 0.25  # the paper's "as much as 34%"


def test_ssbd_ordering_swaptions_worst_facesim_least():
    cpu = get_cpu("cascade_lake")
    config = linux_default(cpu)

    def slowdown(workload):
        base = run_workload(Machine(cpu, seed=1), config, workload,
                            iterations=16, warmup=4)
        ssbd = run_workload(Machine(cpu, seed=1), config, workload,
                            force_ssbd=True, iterations=16, warmup=4)
        return ssbd / base - 1

    s, f, b = slowdown(SWAPTIONS), slowdown(FACESIM), slowdown(BODYTRACK)
    assert s > b > f


def test_ssbd_trend_worsens_across_intel_generations():
    def swaptions_slowdown(key):
        cpu = get_cpu(key)
        config = linux_default(cpu)
        base = run_workload(Machine(cpu, seed=1), config, SWAPTIONS,
                            iterations=16, warmup=4)
        ssbd = run_workload(Machine(cpu, seed=1), config, SWAPTIONS,
                            force_ssbd=True, iterations=16, warmup=4)
        return ssbd / base - 1

    values = [swaptions_slowdown(k) for k in
              ("broadwell", "cascade_lake", "ice_lake_server")]
    assert values == sorted(values)


def test_force_ssbd_requires_permissive_policy():
    """SSBD opt-in needs a policy that honors prctl; OFF ignores it."""
    cpu = get_cpu("zen3")
    off_policy = MitigationConfig.all_off()  # ssbd_mode == OFF
    base = run_workload(Machine(cpu, seed=1), off_policy, SWAPTIONS,
                        iterations=10, warmup=3)
    forced = run_workload(Machine(cpu, seed=1), off_policy, SWAPTIONS,
                          force_ssbd=True, iterations=10, warmup=3)
    assert forced == pytest.approx(base, rel=0.001)


def test_timer_tick_fires():
    from repro.cpu import counters as ctr
    from repro.kernel import Kernel
    from repro.workloads.parsec import PARSECRunner, TIMER_PERIOD
    kernel = Kernel(Machine(get_cpu("zen")), MitigationConfig.all_off())
    runner = PARSECRunner(kernel, SWAPTIONS)
    for _ in range(TIMER_PERIOD):
        runner.run_iteration()
    assert kernel.machine.counters.read(ctr.KERNEL_ENTRIES) >= 1


@pytest.mark.parametrize("workload", SUITE, ids=[w.name for w in SUITE])
def test_iteration_block_is_the_spelled_out_iteration(workload):
    # Written out, an iteration's pair runs are its store/load pairs, one
    # per line of the working set's ring, and its load runs its streaming
    # loads, at cursors whose pairs wrap the ring and, where one exists
    # (bodytrack), a cursor whose streaming loads wrap it.
    cpu = get_cpu("zen3")
    runner = PARSECRunner(Kernel(Machine(cpu, seed=1), linux_default(cpu)), workload)
    strides = workload.stride_count()
    loads = workload.plain_loads
    wraps = [c for c in range(strides) if (c * loads) % strides > strides - loads]
    for cursor in [0, strides - workload.store_load_pairs // 2, strides - 1,
                   3 * strides + 5] + wraps[:1]:
        expected = [isa.work(workload.work_cycles)]
        for i in range(workload.store_load_pairs):
            address = HEAP_BASE + 64 * ((cursor + i) % strides)
            expected += (isa.store(address), isa.load(address))
        for i in range(workload.plain_loads):
            expected.append(isa.load(HEAP_BASE + (1 << 24) + 64 * (
                (cursor * workload.plain_loads + i) % strides)))
        runner._cursor = cursor
        block = runner.iteration_block()
        assert {i.op for i in block[1:]} <= {isa.Op.STORE_LOAD, isa.Op.LOAD_RUN}
        assert spelled_out(block) == expected
