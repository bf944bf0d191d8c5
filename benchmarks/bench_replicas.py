"""Replica speedup guard and telemetry report.

Times N seeded replicas of one LEBench cell run one machine at a time
(the loop the section-4.1 noise methodology implies) against
:func:`repro.cpu.replicas.run_replicas`, which runs one simulation per
distinct eIBRS scrub schedule.  Asserts the replica values are
bit-identical to the one-at-a-time reference, that the steady state
needed exactly one run per batch and zero scalar fallbacks, and that
the wall-clock speedup clears a floor.

The floor defaults to 5.0x — on a no-scrub cell N replicas cost one run
plus N schedule lookups, so the measured speedup approaches N and the
gate has wide margin at N = 32.  Override with
``REPLICA_SPEEDUP_FLOOR=20`` to chase the headline number locally.
"""

import os
import time

from repro.core.study import Settings, lebench_geomean
from repro.cpu import get_cpu
from repro.cpu.replicas import STATS, replica_seed, run_replicas
from repro.mitigations import linux_default

REPLICAS = 32
REPEATS = 3
SPEEDUP_FLOOR = float(os.environ.get("REPLICA_SPEEDUP_FLOOR", "5.0"))

#: Cheap but non-trivial cell: broadwell has no periodic scrub, so every
#: replica shares one schedule — the steady state of the study grid.
SETTINGS = Settings(iterations=8, warmup=2, max_samples=40, rel_tol=0.005)


def _run_fn():
    cpu = get_cpu("broadwell")
    config = linux_default(cpu)
    return lambda machine_seed: lebench_geomean(cpu, config, SETTINGS,
                                                seed=machine_seed)


def test_replica_batch_speedup_and_identity(save_artifact):
    run_fn = _run_fn()
    seed = 7

    scalar_s = float("inf")
    reference = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference = [run_fn(replica_seed(seed, i)) for i in range(REPLICAS)]
        scalar_s = min(scalar_s, time.perf_counter() - start)

    calls = []

    def counted(machine_seed):
        calls.append(machine_seed)
        return run_fn(machine_seed)

    STATS.reset()
    batch_s = float("inf")
    values = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        values = run_replicas(counted, seed=seed, n=REPLICAS)
        batch_s = min(batch_s, time.perf_counter() - start)

    assert values == reference, (
        "replica values diverged from the one-at-a-time reference")
    assert STATS.scalar_fallbacks == 0, (
        "steady-state cell took scalar fallbacks; replicas sharing a "
        "schedule are not reusing the first run")
    assert len(calls) == REPEATS, (
        f"{len(calls)} runs for {REPEATS} batches of {REPLICAS}; expected "
        f"one run per batch")

    speedup = scalar_s / batch_s
    report = (f"replicas        {REPLICAS}\n"
              f"one at a time   {1e3 * scalar_s:8.2f} ms\n"
              f"run_replicas    {1e3 * batch_s:8.2f} ms\n"
              f"speedup         {speedup:8.2f}x (floor {SPEEDUP_FLOOR:.1f}x)\n"
              f"\n{STATS.summary()}\n")
    save_artifact("replica_speedup.txt", report)

    assert speedup >= SPEEDUP_FLOOR, (
        f"replica batch speedup {speedup:.2f}x is under the "
        f"{SPEEDUP_FLOOR:.1f}x floor")
