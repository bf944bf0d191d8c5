"""Seeded replicas of one cell, one run per scrub firing schedule.

The section-4.1 methodology repeats every (cpu, policy, workload) cell
until the 95% confidence interval is tight; ``--replicas N`` averages
those samples over N machine seeds the way real-hardware campaigns
average over reboots.

* Replica ``i`` is *defined* as a full simulator run whose machines are
  seeded with :func:`replica_seed` ``(seed, i)``.  Replica 0 keeps the
  cell's own seed, so one replica is exactly the classic single run.
* The machine is deterministic except for a single RNG consumer: the
  eIBRS periodic BTB-scrub interval (paper section 6.2.2), drawn first
  at the machine's first scrub-eligible kernel entry (not at
  construction) and again at each scrub firing.  Two replicas whose
  scrub *firing schedules* coincide therefore execute bit-identically.
* :func:`run_replicas` runs replica 0 under a :class:`ScrubProbe` (an
  observer that collects the run's machines; each machine keeps its
  seed and counts its own scrub-eligible kernel entries — a count, never
  a behavior change), derives every replica's firing schedule straight
  from its seed via :func:`firing_schedule` *without running it*, and
  runs ``run_fn`` once per schedule it has not seen yet.

On the five CPU models without the periodic scrub — and on scrub-capable
parts whenever the policy leaves eIBRS disabled — no machine consults
its RNG at a kernel entry, every schedule is empty, and N replicas cost
one simulation instead of N.  That is the steady state
:mod:`benchmarks.bench_replicas` gates at >= 5x.

Why the schedule comparison is sound: the committed instruction stream
is program-defined, never timing-defined, so the number and order of
scrub-eligible kernel entries is identical across seeds.  Given equal
firing positions, every ``btb.flush()``, extra-cycle charge and ledger
posting lands at the same point of the same stream — the runs are the
same run.  Machines a cell creates at a fixed internal offset from the
replica seed (e.g. :class:`~repro.cpu.smt.SMTCore`'s second thread at
``seed + 1``) are compared at the same offset; a machine whose seed the
runner pins outright has the same schedule in every replica, so at
worst a differing key costs an extra run, never a wrong value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..core.stats import derive_seed
from ..obs.observers import use_observers


def replica_seed(seed: int, index: int) -> int:
    """Machine seed of replica ``index`` of a cell seeded ``seed``.

    Replica 0 *is* the cell's own seed: one replica executes exactly the
    classic single run.
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
    interval draw at the first eligible entry (the machine builds its
    generator there, not at construction), then one per firing — the
    countdown first reaches zero at the drawn interval's entry, so
    positions are the running sum of the draws, truncated at
    ``entries``.
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

    def schedule(self, probe_seed: int,
                 candidate_seed: int) -> Tuple[Tuple[int, ...], ...]:
        """The scrub firing schedules a run seeded ``candidate_seed``
        follows, one :func:`firing_schedule` per probed machine.

        Each machine is read at its seed offset from the probed run's
        ``probe_seed``, so a sibling built at ``seed + k`` (an SMT pair)
        is read at ``candidate_seed + k``.  Two runs with equal schedules
        execute bit-identically.
        """
        return tuple(
            firing_schedule(candidate_seed + machine.seed - probe_seed,
                            *machine.cpu.predictor.eibrs_scrub_period,
                            machine.scrub_entries)
            for machine in self.machines)


class ReplicaStats:
    """Module-wide replica counters (`engine.EngineStats` idiom).

    ``batches`` counts :func:`run_replicas` calls.  Of the replicas after
    the first in each call, ``batched`` reused an earlier run's value and
    ``scalar_fallbacks`` had to run.  Workers ship :meth:`as_dict` home
    and the parent :meth:`merge`\\ s, exactly like the block-engine
    counters.
    """

    __slots__ = ("batches", "replicas", "batched", "scalar_fallbacks")

    FIELDS = ("batches", "replicas", "batched", "scalar_fallbacks")

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
        """Fraction of replicas after the first that reused a run.

        1.0 when nothing was eligible (every batch had a single replica):
        vacuously, no replica needed a run of its own.
        """
        eligible = self.batched + self.scalar_fallbacks
        return self.batched / eligible if eligible else 1.0

    def summary(self) -> str:
        return (f"{self.replicas} replicas in {self.batches} batches: "
                f"{self.batched} batched, {self.scalar_fallbacks} scalar "
                f"fallbacks ({100.0 * self.hit_rate():.1f}% batch hit rate)")


#: Process-wide counters, reset per worker cell like the engine's.
STATS = ReplicaStats()


def run_replicas(run_fn: Callable[[int], float], seed: int,
                 n: int = 1) -> List[float]:
    """The values of ``n`` seeded replicas of one cell.

    ``run_fn(machine_seed)`` must run the cell's full simulation with
    its machines seeded from ``machine_seed`` and return the
    deterministic metric.  Replica 0 runs under a :class:`ScrubProbe`;
    every replica then looks up its scrub firing schedule and runs only
    if no earlier replica had the same one.  The values are
    bit-identical to ``n`` independent runs — the differential suite in
    ``tests/core/test_replicas.py`` enforces this across the 8-CPU x
    policy grid.
    """
    if n < 1:
        raise ValueError(f"need at least one replica, got {n}")
    STATS.batches += 1
    STATS.replicas += n
    probe = ScrubProbe()
    with use_observers(probe):
        value = float(run_fn(seed))  # replica 0 is the cell seed itself
    runs = {probe.schedule(seed, seed): value}
    values = [value]
    for index in range(1, n):
        machine_seed = replica_seed(seed, index)
        key = probe.schedule(seed, machine_seed)
        if key in runs:
            STATS.batched += 1
        else:
            runs[key] = float(run_fn(machine_seed))
            STATS.scalar_fallbacks += 1
        values.append(runs[key])
    return values
