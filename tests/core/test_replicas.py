"""Differential suite for seeded replicas.

The non-negotiable contract: ``run_replicas`` over N replicas must be
bit-identical to N independent runs — across every CPU model, with and
without the eIBRS periodic scrub in play, whether a replica reuses an
earlier run's value or runs itself.
"""

import dataclasses

import pytest

from repro.core.stats import suite_geometric_mean
from repro.core.study import Settings, lebench_geomean
from repro.cpu import counters as ctr
from repro.cpu.machine import Machine
from repro.cpu.model import all_cpus, get_cpu
from repro.cpu.replicas import (
    STATS,
    ReplicaStats,
    ScrubProbe,
    firing_schedule,
    publish_metrics,
    replica_seed,
    run_replicas,
)
from repro.cpu.smt import SMTCore
from repro.kernel import GETPID, Kernel
from repro.mitigations.base import MitigationConfig
from repro.obs.observers import use_observers
from repro.mitigations.policy import linux_default
from repro.obs.metrics import MetricsRegistry
from repro.workloads import lebench

ALL_CPU_KEYS = [cpu.key for cpu in all_cpus()]

#: Cheapest settings that still cross kernel entries often enough to
#: exercise the scrub path on eIBRS parts.
TINY = dataclasses.replace(Settings.fast(), iterations=3, warmup=1)


def _cell_run_fn(cpu, config):
    return lambda machine_seed: lebench_geomean(cpu, config, TINY,
                                                seed=machine_seed)


def _counting(run_fn):
    """``run_fn`` plus the list of machine seeds it was called with."""
    calls = []

    def counted(machine_seed):
        calls.append(machine_seed)
        return run_fn(machine_seed)
    return counted, calls


# --------------------------------------------------------------------------- #
# The bit-identity grid: every CPU model x policy
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", ["all_off", "linux_default"])
@pytest.mark.parametrize("cpu_key", ALL_CPU_KEYS)
def test_batched_matches_scalar_bitwise(cpu_key, policy):
    cpu = get_cpu(cpu_key)
    config = (MitigationConfig.all_off() if policy == "all_off"
              else linux_default(cpu))
    run_fn = _cell_run_fn(cpu, config)
    n, seed = 3, 7
    reference = [run_fn(replica_seed(seed, i)) for i in range(n)]
    assert run_replicas(run_fn, seed=seed, n=n) == reference


def test_no_scrub_part_collapses_to_one_probe_run():
    """Broadwell has no periodic scrub: every replica's schedule is
    empty and one run serves them all — the steady state the >= 5x
    bench floor relies on."""
    run_fn, calls = _counting(
        _cell_run_fn(get_cpu("broadwell"), MitigationConfig.all_off()))
    STATS.reset()
    values = run_replicas(run_fn, seed=7, n=6)
    assert calls == [7]
    assert STATS.batched == 5
    assert STATS.scalar_fallbacks == 0
    assert values == [values[0]] * 6


def test_scrub_part_with_eibrs_off_also_collapses():
    """cascade_lake draws its scrub interval at construction, but with
    mitigations off no kernel entry consults it — schedules are compared
    only over *eligible* entries, so one run still serves every replica."""
    run_fn, calls = _counting(
        _cell_run_fn(get_cpu("cascade_lake"), MitigationConfig.all_off()))
    STATS.reset()
    run_replicas(run_fn, seed=7, n=4)
    assert len(calls) == 1
    assert STATS.scalar_fallbacks == 0


def test_divergent_replicas_fall_back_and_reconverge():
    """cascade_lake under linux_default fires the scrub: at seed 7 the
    four replicas have four distinct firing schedules, so each runs
    itself, and every value is still bit-exact."""
    cpu = get_cpu("cascade_lake")
    run_fn, calls = _counting(_cell_run_fn(cpu, linux_default(cpu)))
    n, seed = 4, 7
    STATS.reset()
    values = run_replicas(run_fn, seed=seed, n=n)
    assert calls == [replica_seed(seed, i) for i in range(n)]
    assert STATS.scalar_fallbacks == n - 1 and STATS.batched == 0
    assert values == [run_fn(replica_seed(seed, i)) for i in range(n)]


def test_replicas_sharing_a_schedule_run_once():
    """Replicas after the first that share a firing schedule run once
    between them, not once each: 12 getpid round trips on cascade_lake
    see 12 scrub-eligible entries, and at seed 0 the eight replicas'
    schedules take only two distinct values."""
    cpu = get_cpu("cascade_lake")
    config = linux_default(cpu)

    def getpid_cycles(machine_seed):
        kernel = Kernel(Machine(cpu, seed=machine_seed), config)
        return float(sum(kernel.syscall(GETPID) for _ in range(12)))

    probe = ScrubProbe()
    with use_observers(probe):
        getpid_cycles(0)
    assert [probe.schedule(0, replica_seed(0, i)) for i in range(8)] == [
        ((),), ((9,),), ((),), ((),), ((9,),), ((9,),), ((),), ((),)]

    run_fn, calls = _counting(getpid_cycles)
    STATS.reset()
    values = run_replicas(run_fn, seed=0, n=8)
    assert values == [getpid_cycles(replica_seed(0, i)) for i in range(8)]
    assert calls == [0, replica_seed(0, 1)]
    assert STATS.batched == 6 and STATS.scalar_fallbacks == 1


def test_smt_sibling_seed_offset_is_respected():
    """SMTCore builds thread1 at seed + 1; the probe reads each
    machine's schedule at its offset from the replica seed, so SMT cells
    stay bit-exact through run_replicas."""
    cpu = get_cpu("cascade_lake")
    config = linux_default(cpu)

    def run_fn(machine_seed):
        core = SMTCore(cpu, seed=machine_seed)
        a = lebench.run_suite(core.thread0, config, iterations=2, warmup=1)
        b = lebench.run_suite(core.thread1, config, iterations=2, warmup=1)
        return suite_geometric_mean(a) + suite_geometric_mean(b)

    n, seed = 3, 11
    reference = [run_fn(replica_seed(seed, i)) for i in range(n)]
    assert run_replicas(run_fn, seed=seed, n=n) == reference


# --------------------------------------------------------------------------- #
# The probe and the schedule model
# --------------------------------------------------------------------------- #

def test_firing_schedule_predicts_real_scrub_flushes():
    """The schedule derived from the seed alone must equal what the
    machine actually does: one BTB flush per predicted firing."""
    cpu = get_cpu("cascade_lake")
    config = linux_default(cpu)
    probe = ScrubProbe()
    with use_observers(probe):
        machine = Machine(cpu, seed=21)
        lebench.run_suite(machine, config, iterations=3, warmup=1)
    assert probe.machines == [machine]
    entries = machine.scrub_entries
    assert entries > 0
    low, high = cpu.predictor.eibrs_scrub_period
    schedule = firing_schedule(21, low, high, entries)
    assert len(schedule) == machine.counters.read(ctr.BTB_FLUSH_ON_ENTRY) > 0


def test_probe_is_purely_observational():
    """A probed run is bit-identical to an unprobed one."""
    cpu = get_cpu("ice_lake_server")
    run_fn = _cell_run_fn(cpu, linux_default(cpu))
    bare = run_fn(33)
    with use_observers(ScrubProbe()):
        probed = run_fn(33)
    assert bare == probed


def test_inner_probe_scope_restores_outer_probe():
    outer = ScrubProbe()
    with use_observers(outer):
        inner = ScrubProbe()
        with use_observers(inner):
            shadowed = Machine(get_cpu("broadwell"), seed=2)
        machine = Machine(get_cpu("broadwell"), seed=1)
    assert outer.machines == [machine]
    assert inner.machines == [shadowed]
    assert machine.hooks is None  # the probe forces no interpretation


def test_replica_seed_contract():
    assert replica_seed(7, 0) == 7          # replica 0 IS the cell seed
    assert replica_seed(7, 1) != replica_seed(7, 2)
    assert replica_seed(7, 1) != replica_seed(8, 1)
    with pytest.raises(ValueError):
        replica_seed(7, -1)


def test_firing_schedule_empty_without_entries():
    assert firing_schedule(5, 8, 20, 0) == ()


# --------------------------------------------------------------------------- #
# Telemetry plumbing
# --------------------------------------------------------------------------- #

def test_stats_merge_matches_worker_protocol():
    parent, worker = ReplicaStats(), ReplicaStats()
    worker.batches, worker.replicas, worker.batched = 2, 8, 5
    worker.scalar_fallbacks = 1
    parent.merge(worker.as_dict())
    parent.merge(worker.as_dict())
    assert parent.as_dict() == {"batches": 4, "replicas": 16, "batched": 10,
                                "scalar_fallbacks": 2}
    assert parent.hit_rate() == pytest.approx(10 / 12)


def test_stats_hit_rate_is_vacuously_perfect_when_idle():
    assert ReplicaStats().hit_rate() == 1.0


def test_stats_summary_mentions_the_numbers():
    stats = ReplicaStats()
    stats.replicas, stats.batches, stats.batched = 9, 3, 4
    stats.scalar_fallbacks = 2
    text = stats.summary()
    assert "9 replicas in 3 batches" in text
    assert "66.7% batch hit rate" in text


def test_publish_metrics_exports_nonzero_counters():
    registry = MetricsRegistry()
    STATS.reset()
    run_fn = _cell_run_fn(get_cpu("zen3"), MitigationConfig.all_off())
    run_replicas(run_fn, seed=3, n=3)
    publish_metrics(registry)
    assert registry.counter("replicas.replicas").value == 3
    assert registry.counter("replicas.batched").value == 2
    assert "replicas.scalar_fallbacks" not in registry.collect()


def test_replica_batch_validation():
    run_fn, calls = _counting(lambda machine_seed: 1.0)
    with pytest.raises(ValueError, match="at least one replica"):
        run_replicas(run_fn, seed=0, n=0)
    assert calls == []
