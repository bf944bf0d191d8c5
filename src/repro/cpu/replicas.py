"""Batched structure-of-arrays (SoA) replica execution.

The section-4.1 methodology repeats every (cpu, policy, workload) cell
until the 95% confidence interval is tight, so *replica* throughput —
not single-run latency — is the wall-clock floor of the full study grid.
This module executes N seeded replicas of one cell in lockstep instead
of one machine at a time:

* Replica ``i`` is *defined* as a full simulator run whose machines are
  seeded with :func:`replica_seed` ``(seed, i)``.  Replica 0 keeps the
  cell's own seed, so a one-replica batch is bit-identical to the
  pre-batch code path.
* The machine is deterministic except for a single RNG consumer: the
  eIBRS periodic BTB-scrub interval (paper section 6.2.2), redrawn once
  at construction and once per scrub firing.  Two replicas whose scrub
  *firing schedules* coincide therefore execute bit-identically, and a
  whole batch collapses onto one representative execution.
* :func:`run_replicas` runs one **probe** replica under a
  :class:`ScrubProbe` (an observer that collects the run's machines;
  each machine keeps its seed and counts its own scrub-eligible kernel
  entries — a count, never a behavior change),
  derives every other replica's firing schedule straight from its seed
  via :func:`firing_schedule` *without running it*, and broadcasts the
  probe's metric / cycle / counter deltas into the per-replica
  structure-of-arrays accumulators of a :class:`ReplicaBatch` in one
  vector op per array.
* Replicas whose schedule diverges from the probe's fall back to scalar
  execution — the existing interpreter / block-engine path, which is
  exact by construction — and the batch re-converges afterward: their
  rows are filled individually and subsequent consumers (noise
  sampling, telemetry) see one dense SoA again.

On the five CPU models without the periodic scrub — and on scrub-capable
parts whenever the policy leaves eIBRS disabled — no machine consults
its RNG at a kernel entry, every schedule is trivially equal, and a
batch of N replicas costs one simulation instead of N.  That is the
steady state :mod:`benchmarks.bench_replicas` gates at >= 5x.

Why the schedule comparison is sound: the committed instruction stream
is program-defined, never timing-defined, so the number and order of
scrub-eligible kernel entries is identical across seeds.  Given equal
firing positions, every ``btb.flush()``, extra-cycle charge and ledger
posting lands at the same point of the same stream — the runs are the
same run.  Machines a cell creates at a fixed internal offset from the
replica seed (e.g. :class:`~repro.cpu.smt.SMTCore`'s second thread at
``seed + 1``) are compared at the same offset; a machine whose seed the
runner pins outright compares equal under any offset shift or falls
back to scalar, which is always correct, merely slower.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..core.stats import derive_seed
from ..obs.observers import use_observers


def replica_seed(seed: int, index: int) -> int:
    """Machine seed of replica ``index`` of a cell seeded ``seed``.

    Replica 0 *is* the cell's own seed: a batch of one executes exactly
    the run the scalar code path always executed.
    """
    if index < 0:
        raise ValueError("replica index must be >= 0")
    if index == 0:
        return seed
    return derive_seed(seed, "replica", str(index))


def firing_schedule(seed: int, low: int, high: int,
                    entries: int) -> Tuple[int, ...]:
    """Scrub firing positions (1-based eligible-entry indexes) for a
    machine seeded ``seed`` across ``entries`` scrub-eligible kernel
    entries.

    Mirrors :class:`~repro.cpu.machine.Machine` draw-for-draw: one
    interval draw at construction, then one per firing — the countdown
    first reaches zero at the drawn interval's entry, so positions are
    the running sum of the draws, truncated at ``entries``.
    """
    if entries <= 0:
        return ()
    rng = np.random.default_rng(seed)
    positions: List[int] = []
    position = int(rng.integers(low, high + 1))
    while position <= entries:
        positions.append(position)
        position += int(rng.integers(low, high + 1))
    return tuple(positions)


class ScrubProbe:
    """Collects the machines one replica run builds.

    An observer: every machine built inside ``use_observers(probe)``
    attaches it.  Each machine already keeps its construction seed and
    counts its own scrub-eligible kernel entries, so the probe hooks
    nothing and forces no interpretation — a probed run is bit-identical
    to an unprobed one.
    """

    def __init__(self) -> None:
        self.machines: List[object] = []

    def bind_machine(self, machine) -> None:
        self.machines.append(machine)

    def total_tsc(self) -> int:
        return sum(m.counters.tsc for m in self.machines)

    def total_counters(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for machine in self.machines:
            for name, value in machine.counters.snapshot().items():
                out[name] = out.get(name, 0) + value
        return out

    def diverges(self, probe_seed: int, candidate_seed: int) -> bool:
        """Would a replica seeded ``candidate_seed`` execute differently
        from the probed run seeded ``probe_seed``?

        Each registered machine is compared at its seed offset from the
        probe seed, so sibling machines constructed at ``seed + k``
        (SMT pairs) are checked against ``candidate_seed + k``.
        """
        for machine in self.machines:
            seed, entries = machine.seed, machine.scrub_entries
            if entries <= 0:
                continue
            offset = seed - probe_seed
            low, high = machine.cpu.predictor.eibrs_scrub_period
            if (firing_schedule(candidate_seed + offset, low, high, entries)
                    != firing_schedule(seed, low, high, entries)):
                return True
        return False


class ReplicaStats:
    """Module-wide replica-batch counters (`engine.EngineStats` idiom).

    ``batched`` counts replicas served by the vectorized broadcast,
    ``scalar_fallbacks`` those that re-ran scalar after a schedule
    divergence; the probe run itself is counted separately.  Workers
    ship :meth:`as_dict` home and the parent :meth:`merge`\\ s, exactly
    like the block-engine counters.
    """

    __slots__ = ("batches", "replicas", "batched", "scalar_fallbacks",
                 "probe_runs")

    FIELDS = ("batches", "replicas", "batched", "scalar_fallbacks",
              "probe_runs")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def merge(self, state: Dict[str, int]) -> None:
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + int(state.get(name, 0)))

    def hit_rate(self) -> float:
        """Fraction of non-probe replicas served by the broadcast.

        1.0 when nothing was eligible (every batch had a single replica):
        vacuously, no replica needed a scalar fallback.
        """
        eligible = self.batched + self.scalar_fallbacks
        return self.batched / eligible if eligible else 1.0

    def summary(self) -> str:
        return (f"{self.replicas} replicas in {self.batches} batches: "
                f"{self.batched} batched, {self.scalar_fallbacks} scalar "
                f"fallbacks, {self.probe_runs} probe runs "
                f"({100.0 * self.hit_rate():.1f}% batch hit rate)")


#: Process-wide counters, reset per worker cell like the engine's.
STATS = ReplicaStats()


def publish_metrics(registry) -> None:
    """Copy the replica counters into a metrics registry as
    ``replicas.<name>`` counters (zero-valued fields are skipped)."""
    for name, value in STATS.as_dict().items():
        if value:
            registry.counter(f"replicas.{name}").inc(value)


class ReplicaBatch:
    """Structure-of-arrays accumulators for one cell's replica batch.

    One row per replica; columns are NumPy arrays, so applying the
    probe's memoized run delta to every converged replica is one vector
    op per column rather than a Python loop over machines.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one replica")
        self.n = n
        #: Deterministic metric per replica (the cell runner's value).
        self.values = np.zeros(n, dtype=float)
        #: Simulated cycles per replica, summed over the run's machines.
        self.tsc = np.zeros(n, dtype=np.int64)
        #: Event-counter totals per replica: name -> int64 column.
        self.counters: Dict[str, np.ndarray] = {}
        #: True where the probe's execution was broadcast (replica 0 is
        #: the probe itself); False rows re-ran scalar.
        self.converged = np.zeros(n, dtype=bool)

    def _counter_column(self, name: str) -> np.ndarray:
        column = self.counters.get(name)
        if column is None:
            column = np.zeros(self.n, dtype=np.int64)
            self.counters[name] = column
        return column

    def broadcast(self, mask: np.ndarray, value: float, tsc: int,
                  counters: Dict[str, int]) -> None:
        """Apply one run's delta to every replica in ``mask`` at once."""
        self.values[mask] = value
        self.tsc[mask] += tsc
        for name, amount in counters.items():
            self._counter_column(name)[mask] += amount

    def fill_scalar(self, index: int, value: float, tsc: int,
                    counters: Dict[str, int]) -> None:
        """Re-converge one divergent replica from its scalar run."""
        self.values[index] = value
        self.tsc[index] += tsc
        for name, amount in counters.items():
            self._counter_column(name)[index] += amount


def run_replicas(run_fn: Callable[[int], float], seed: int,
                 n: int = 1) -> ReplicaBatch:
    """Execute ``n`` seeded replicas of one cell, batched.

    ``run_fn(machine_seed)`` must run the cell's full simulation with
    its machines seeded from ``machine_seed`` and return the
    deterministic metric.  The first replica runs for real (the probe);
    every replica whose scrub firing schedule provably matches is filled
    by SoA broadcast, the rest re-run scalar and the batch re-converges.
    The returned values are bit-identical to ``n`` independent scalar
    runs — the differential suite in ``tests/core/test_replicas.py``
    enforces this across the 8-CPU x policy grid.
    """
    batch = ReplicaBatch(n)
    STATS.batches += 1
    STATS.replicas += n

    probe_seed = replica_seed(seed, 0)
    probe = ScrubProbe()
    with use_observers(probe):
        probe_value = float(run_fn(probe_seed))
    STATS.probe_runs += 1

    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    divergent: List[int] = []
    for index in range(1, n):
        if probe.diverges(probe_seed, replica_seed(seed, index)):
            divergent.append(index)
        else:
            mask[index] = True
    batch.converged = mask
    batch.broadcast(mask, probe_value, probe.total_tsc(),
                    probe.total_counters())
    STATS.batched += int(mask.sum()) - 1

    for index in divergent:
        scalar = ScrubProbe()
        with use_observers(scalar):
            value = float(run_fn(replica_seed(seed, index)))
        batch.fill_scalar(index, value, scalar.total_tsc(),
                          scalar.total_counters())
        STATS.scalar_fallbacks += 1
    return batch
