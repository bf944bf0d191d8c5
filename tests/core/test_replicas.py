"""Differential suite for the batched SoA replica tier.

The non-negotiable contract (ISSUE 9): a batch of N replicas must be
bit-identical to N independent scalar runs — across every CPU model,
with and without the eIBRS periodic scrub in play, through the SoA
broadcast fast path and the scalar-fallback slow path alike.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.stats import suite_geometric_mean
from repro.core.study import Settings, lebench_geomean
from repro.cpu import counters as ctr
from repro.cpu.machine import Machine
from repro.cpu.model import all_cpus, get_cpu
from repro.cpu.replicas import (
    STATS,
    ReplicaBatch,
    ReplicaStats,
    ScrubProbe,
    firing_schedule,
    publish_metrics,
    replica_seed,
    run_replicas,
)
from repro.cpu.smt import SMTCore
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
    reference = np.array([run_fn(replica_seed(seed, i)) for i in range(n)])
    batch = run_replicas(run_fn, seed=seed, n=n)
    assert np.array_equal(batch.values, reference)
    assert batch.converged[0]  # the probe row is always authoritative


def test_no_scrub_part_collapses_to_one_probe_run():
    """Broadwell has no periodic scrub: every replica's schedule is
    trivially equal and the whole batch is served by the broadcast —
    the steady state the >= 5x bench floor relies on."""
    run_fn = _cell_run_fn(get_cpu("broadwell"), MitigationConfig.all_off())
    STATS.reset()
    batch = run_replicas(run_fn, seed=7, n=6)
    assert batch.converged.all()
    assert STATS.probe_runs == 1
    assert STATS.batched == 5
    assert STATS.scalar_fallbacks == 0
    assert np.all(batch.values == batch.values[0])


def test_scrub_part_with_eibrs_off_also_collapses():
    """cascade_lake draws its scrub interval at construction, but with
    mitigations off no kernel entry consults it — schedules are compared
    only over *eligible* entries, so the batch still collapses."""
    run_fn = _cell_run_fn(get_cpu("cascade_lake"), MitigationConfig.all_off())
    STATS.reset()
    batch = run_replicas(run_fn, seed=7, n=4)
    assert batch.converged.all()
    assert STATS.scalar_fallbacks == 0


def test_divergent_replicas_fall_back_and_reconverge():
    """cascade_lake under linux_default fires the scrub: replicas with
    differing firing schedules re-run scalar, and the batch re-converges
    to one dense SoA whose rows are still bit-exact."""
    cpu = get_cpu("cascade_lake")
    run_fn = _cell_run_fn(cpu, linux_default(cpu))
    n, seed = 4, 7
    STATS.reset()
    batch = run_replicas(run_fn, seed=seed, n=n)
    assert batch.converged[0]
    assert not batch.converged.all()          # divergence actually occurred
    assert STATS.scalar_fallbacks == int((~batch.converged).sum())
    assert STATS.batched + STATS.scalar_fallbacks == n - 1
    reference = np.array([run_fn(replica_seed(seed, i)) for i in range(n)])
    assert np.array_equal(batch.values, reference)
    # SoA columns are dense: cycles accumulated for every row.
    assert (batch.tsc > 0).all()


def test_smt_sibling_seed_offset_is_respected():
    """SMTCore builds thread1 at seed + 1; the probe compares each
    machine at its offset from the replica seed, so SMT cells stay
    bit-exact through the batch tier."""
    cpu = get_cpu("cascade_lake")
    config = linux_default(cpu)

    def run_fn(machine_seed):
        core = SMTCore(cpu, seed=machine_seed)
        a = lebench.run_suite(core.thread0, config, iterations=2, warmup=1)
        b = lebench.run_suite(core.thread1, config, iterations=2, warmup=1)
        return suite_geometric_mean(a) + suite_geometric_mean(b)

    n, seed = 3, 11
    reference = np.array([run_fn(replica_seed(seed, i)) for i in range(n)])
    batch = run_replicas(run_fn, seed=seed, n=n)
    assert np.array_equal(batch.values, reference)


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
    worker.scalar_fallbacks, worker.probe_runs = 1, 2
    parent.merge(worker.as_dict())
    parent.merge(worker.as_dict())
    assert parent.as_dict() == {"batches": 4, "replicas": 16, "batched": 10,
                                "scalar_fallbacks": 2, "probe_runs": 4}
    assert parent.hit_rate() == pytest.approx(10 / 12)


def test_stats_hit_rate_is_vacuously_perfect_when_idle():
    assert ReplicaStats().hit_rate() == 1.0


def test_stats_summary_mentions_the_numbers():
    stats = ReplicaStats()
    stats.replicas, stats.batches, stats.batched = 9, 3, 4
    stats.scalar_fallbacks, stats.probe_runs = 2, 3
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
    assert registry.counter("replicas.probe_runs").value == 1


def test_replica_batch_validation():
    with pytest.raises(ValueError):
        ReplicaBatch(0)
