"""End-to-end experiment drivers: one function per paper figure/finding.

Each driver is one row of data in :data:`DRIVERS`: its one-simulation
function plus its knob chain and metric (Figures 2 and 3) or its two
arms (Figure 5, section 4.4/4.5 findings).  :func:`sweep` enumerates a
driver's grid as independent (cpu, config, workload, settings) **cells**
— :class:`~repro.core.executor.CellSpec`s — and hands them to a
:class:`~repro.core.executor.StudyExecutor`, which runs them
inline (the serial path), fans them out over a process pool (``jobs>1``)
or satisfies them from the persistent result cache.  A cell runs through
the runner of its result kind, and every configuration is measured by
:func:`~repro.core.attribution.measure_arm`.

Every cell derives its own noise seed from the spec path
(:meth:`CellSpec.seed`), on the serial and parallel paths alike: distinct
(cpu, config, workload) cells must never consume identical noise
streams, or their errors correlate and bias the attribution stacks.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import (Any, Callable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..cpu.machine import Machine
from ..cpu.model import CPUModel, all_cpus, get_cpu
from ..jsengine import octane
from ..obs import spans as obs_spans
from ..mitigations.base import Knob, KNOBS_BY_NAME, MitigationConfig
from ..mitigations.policy import linux_default
from ..workloads import lebench, lfs, parsec, vm_lebench
from .attribution import (CYCLES, SCORE, AttributionResult,
                          attribute_overhead, measure_arm)
from .executor import ATTRIBUTION, PAIRED, CellSpec, StudyExecutor
# perfbench's layer tracer wraps ``study.adaptive_measure`` by name, so
# the name stays here although the measuring happens in measure_arm.
from .stats import (
    DEFAULT_NOISE_SIGMA,
    Measurement,
    adaptive_measure,
    derive_seed,
    suite_geometric_mean,
)

#: Figure 2 stacks these kernel knobs (attribution order: most expensive
#: mitigations first, mirroring the paper's legend).
FIGURE2_KNOBS: Tuple[Knob, ...] = tuple(
    KNOBS_BY_NAME[name] for name in
    ("pti", "mds", "spectre_v2", "spectre_v1", "l1tf", "lazyfp", "ssbd")
)

#: Figure 3 stacks the JS knobs (blue) then the OS-side SSBD (green);
#: everything else lands in the "other OS" residual.
FIGURE3_KNOBS: Tuple[Knob, ...] = tuple(
    KNOBS_BY_NAME[name] for name in
    ("js_index_masking", "js_object_guards", "js_other", "ssbd")
)


@dataclass(frozen=True)
class Settings:
    """Measurement effort; ``fast()`` keeps tests snappy.

    ``replicas`` is the number of seeded machine replicas each cell
    averages over (see :mod:`repro.cpu.replicas`): noise samples cycle
    over the replica metrics, so the measured mean averages over
    machine-seed variation the way real-hardware campaigns average over
    reboots.  The default of 1 is the classic single-run measurement.
    """

    iterations: int = 24
    warmup: int = 6
    sigma: float = DEFAULT_NOISE_SIGMA
    rel_tol: float = 0.005
    max_samples: int = 60
    seed: int = 7
    replicas: int = 1

    @classmethod
    def fast(cls) -> "Settings":
        """Fewer simulated iterations; the noise-averaging stays fairly
        tight because it is cheap (one simulation per configuration)."""
        return cls(iterations=10, warmup=3, max_samples=40, rel_tol=0.006)


def config_label(config: MitigationConfig) -> str:
    """Compact ``knob+knob`` description of the switched-on mitigations,
    for naming configs inside exceptions and cache keys."""
    parts = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            if value:
                parts.append(f.name)
        elif getattr(value, "name", str(value)) not in ("NONE", "OFF"):
            parts.append(f"{f.name}={getattr(value, 'value', value)}")
    return "+".join(parts) or "all-off"


# --------------------------------------------------------------------------- #
# Simulation functions: one run of a cell's configuration at a machine seed
# --------------------------------------------------------------------------- #
# Each calls its workload module's runner through the module at call
# time, so a wrapper installed on the module (perfbench's layer tracer)
# sees every run.

def lebench_geomean(cpu: CPUModel, config: MitigationConfig,
                    settings: Settings, seed: Optional[int] = None) -> float:
    """Figure 2's metric: geometric mean of LEBench per-case cycles/op."""
    seed = settings.seed if seed is None else seed
    results = lebench.run_suite(
        Machine(cpu, seed=seed), config,
        iterations=settings.iterations, warmup=settings.warmup,
    )
    return suite_geometric_mean(
        results, context=f"lebench on {cpu.key}, {config_label(config)}")


def octane_suite_score(cpu: CPUModel, config: MitigationConfig,
                       settings: Settings, seed: Optional[int] = None) -> float:
    """Figure 3's metric: the Octane 2 suite score."""
    seed = settings.seed if seed is None else seed
    scores = octane.run_suite(
        Machine(cpu, seed=seed), config,
        iterations=settings.iterations, warmup=settings.warmup,
    )
    return octane.suite_score(scores)


class Arm(NamedTuple):
    """One measured configuration of a paired cell: its mitigation policy,
    and whether the process opts into SSBD via prctl (PARSEC, section 5.5)."""

    policy: Callable[[CPUModel], MitigationConfig]
    force_ssbd: bool = False


def _parsec_cycles(cpu: CPUModel, arm: Arm, workload: str,
                   settings: Settings, machine_seed: int) -> float:
    """Cycles per iteration of one PARSEC workload (Figure 5, section 4.5)."""
    return parsec.run_workload(
        Machine(cpu, seed=machine_seed), arm.policy(cpu),
        parsec.get_workload(workload), force_ssbd=arm.force_ssbd,
        iterations=settings.iterations, warmup=settings.warmup)


def _vm_lebench_geomean(cpu: CPUModel, arm: Arm, workload: str,
                        settings: Settings, machine_seed: int) -> float:
    """Guest LEBench geomean under the arm's host mitigations (section 4.4)."""
    config = arm.policy(cpu)
    results = vm_lebench.run_suite(
        Machine(cpu, seed=machine_seed), config,
        iterations=settings.iterations, warmup=settings.warmup)
    return suite_geometric_mean(
        results, context=f"vm_lebench on {cpu.key}, {config_label(config)}")


def _lfs_cycles(cpu: CPUModel, arm: Arm, workload: str,
                settings: Settings, machine_seed: int) -> float:
    """Cycles per iteration of one LFS workload in a guest (section 4.4)."""
    return lfs.run_workload(
        Machine(cpu, seed=machine_seed), arm.policy(cpu),
        lfs.get_workload(workload), iterations=max(4, settings.iterations // 3),
        warmup=max(1, settings.warmup // 3))


# --------------------------------------------------------------------------- #
# Paired measurement: Figure 5, sections 4.4 and 4.5
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PairedOverhead:
    """A with-vs-without comparison on one (CPU, workload)."""

    cpu: str
    workload: str
    baseline: Measurement
    treated: Measurement
    overhead_percent: float

    @property
    def significant(self) -> bool:
        return not self.baseline.overlaps(self.treated)


def _paired(cpu: CPUModel, workload: str, base_fn: Callable[[int], float],
            treat_fn: Callable[[int], float], settings: Settings,
            seed: Optional[int] = None) -> PairedOverhead:
    # Decorrelated noise per cell: the executor passes the spec-derived
    # seed; direct library callers fall back to the same derivation over
    # (cpu, workload).  The two arms' noise streams are derived with
    # distinct tags rather than seed/seed+1 — adjacent raw seeds can
    # collide with a neighboring cell's stream and correlate its errors.
    if seed is None:
        seed = derive_seed(settings.seed, cpu.key, workload)
    base, treat = (
        measure_arm(run_fn, seed, derive_seed(seed, tag), settings.sigma,
                    settings.rel_tol, settings.max_samples, settings.replicas)
        for run_fn, tag in ((base_fn, "base"), (treat_fn, "treat")))
    pct = 100.0 * (treat.mean / base.mean - 1.0)
    return PairedOverhead(cpu=cpu.key, workload=workload, baseline=base,
                          treated=treat, overhead_percent=pct)


# --------------------------------------------------------------------------- #
# The driver table: the one list of study drivers, and a runner per kind
# --------------------------------------------------------------------------- #

def _cell_span(row: "Driver", cpu: CPUModel) -> Any:
    return obs_spans.current_tracer().span(
        f"study.{row.span}.{cpu.key}", cpu=cpu.key, workload=row.label)


def _attribution_cell(spec: CellSpec) -> AttributionResult:
    """One Figure 2/3 cell: the row's knob chain, walked from the CPU's
    Linux default down to all-off."""
    row = DRIVERS[spec.driver]
    cpu = get_cpu(spec.cpu)
    settings = spec.settings
    with _cell_span(row, cpu):
        return attribute_overhead(
            lambda config, machine_seed: row.simulate(
                cpu, config, settings, seed=machine_seed),
            linux_default(cpu), row.knobs,
            cpu=cpu.key, workload=spec.workload, metric=row.metric,
            sigma=settings.sigma, rel_tol=settings.rel_tol,
            max_samples=settings.max_samples, seed=spec.seed(),
            replicas=settings.replicas,
        )


def _paired_cell(spec: CellSpec) -> PairedOverhead:
    """One paired cell: the row's two arms on the cell's workload."""
    row = DRIVERS[spec.driver]
    cpu = get_cpu(spec.cpu)
    base, treat = (functools.partial(row.simulate, cpu, arm, spec.workload,
                                     spec.settings) for arm in row.arms)
    with _cell_span(row, cpu):
        return _paired(cpu, spec.workload, base, treat, spec.settings,
                       seed=spec.seed())


@dataclass(frozen=True)
class Driver:
    """One study driver, as data.

    ``workloads`` is either the one workload name every cell carries or a
    suite (a tuple of workload objects) swept one cell per workload.  A
    cell opens the span ``study.<span>.<cpu>``, ``workload=label``.  The
    attribution runner calls ``simulate(cpu, config, settings, seed=...)``
    down the ``knobs`` chain; the paired one calls ``simulate(cpu, arm,
    workload, settings, machine_seed)`` for both ``arms``.
    """

    run_cell: Callable[[CellSpec], Any]    # importable for worker processes
    kind: str                              # executor.ATTRIBUTION or PAIRED
    workloads: Union[str, Tuple[Any, ...]]
    span: str
    label: str
    simulate: Callable[..., float]
    knobs: Tuple[Knob, ...] = ()
    metric: str = CYCLES
    arms: Tuple[Arm, ...] = ()


_ALL_OFF = Arm(lambda cpu: MitigationConfig.all_off())
_DEFAULT = Arm(linux_default)
_DEFAULT_SSBD = Arm(linux_default, force_ssbd=True)

#: driver name -> :class:`Driver`; the executor, ``bench`` and the CLI
#: all read this table.
DRIVERS = {
    "figure2": Driver(_attribution_cell, ATTRIBUTION, "lebench", "figure2",
                      "lebench", lebench_geomean, knobs=FIGURE2_KNOBS),
    "figure3": Driver(_attribution_cell, ATTRIBUTION, "octane2", "figure3",
                      "octane2", octane_suite_score, knobs=FIGURE3_KNOBS,
                      metric=SCORE),
    "figure5": Driver(_paired_cell, PAIRED, parsec.SUITE, "figure5", "parsec",
                      _parsec_cycles, arms=(_DEFAULT, _DEFAULT_SSBD)),
    "parsec_default": Driver(_paired_cell, PAIRED, parsec.SUITE, "parsec",
                             "parsec", _parsec_cycles,
                             arms=(_ALL_OFF, _DEFAULT)),
    "vm_lebench": Driver(_paired_cell, PAIRED, "vm_lebench", "vm_lebench",
                         "vm_lebench", _vm_lebench_geomean,
                         arms=(_ALL_OFF, _DEFAULT)),
    "lfs": Driver(_paired_cell, PAIRED, lfs.SUITE, "lfs", "lfs", _lfs_cycles,
                  arms=(_ALL_OFF, _DEFAULT)),
}


def sweep(
    driver: str,
    cpus: Optional[Sequence[CPUModel]] = None,
    settings: Optional[Settings] = None,
    executor: Optional[StudyExecutor] = None,
    workloads: Optional[Sequence[Any]] = None,
) -> List[Any]:
    """Run ``driver`` over ``cpus`` (default: every modelled CPU) and its
    workloads (default: the whole suite), CPU-major, in cell order.

    Cells address CPUs and workloads by *name* (what hashes, caches and
    crosses process boundaries), so a CPU model or workload object that is
    not its catalog definition is a ``ValueError`` before any cell runs.
    """
    suite = DRIVERS[driver].workloads
    if isinstance(suite, str):
        if workloads is not None:
            raise ValueError(f"{driver} runs only {suite!r}; it takes no "
                             f"workloads")
        names = [suite]
    else:
        names = []
        for workload in suite if workloads is None else workloads:
            if workload not in suite:
                raise ValueError(
                    f"{driver} workload {workload.name!r} is not the suite "
                    f"definition; custom workloads cannot be "
                    f"cell-addressed — run them via the workload module "
                    f"directly")
            names.append(workload.name)
    cpus = cpus or all_cpus()
    for cpu in cpus:
        if get_cpu(cpu.key) != cpu:
            raise ValueError(
                f"{driver} CPU {cpu.key!r} is not the catalog definition; "
                f"what-if CPU models cannot be cell-addressed — run them "
                f"via the workload module directly")
    settings = settings or Settings()
    specs = [CellSpec(driver, cpu.key, name, settings)
             for cpu in cpus for name in names]
    return (executor or StudyExecutor()).run(specs)


def figure2(
    cpus: Optional[Sequence[CPUModel]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[AttributionResult]:
    """The paper's Figure 2: per-CPU LEBench overhead attribution."""
    return sweep("figure2", cpus, settings, executor)


def figure3(
    cpus: Optional[Sequence[CPUModel]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[AttributionResult]:
    """The paper's Figure 3: Octane 2 slowdown attribution per CPU."""
    return sweep("figure3", cpus, settings, executor)


def figure5(
    cpus: Optional[Sequence[CPUModel]] = None,
    workloads: Optional[Sequence[parsec.PARSECWorkload]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[PairedOverhead]:
    """The paper's Figure 5: SSBD slowdown on the PARSEC trio."""
    return sweep("figure5", cpus, settings, executor, workloads)


def parsec_default_overheads(
    cpus: Optional[Sequence[CPUModel]] = None,
    workloads: Optional[Sequence[parsec.PARSECWorkload]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[PairedOverhead]:
    """Section 4.5: default mitigations on compute workloads (~0%)."""
    return sweep("parsec_default", cpus, settings, executor, workloads)


def vm_lebench_overheads(
    cpus: Optional[Sequence[CPUModel]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[PairedOverhead]:
    """LEBench in a guest: host mitigations on vs off (±3% band)."""
    return sweep("vm_lebench", cpus, settings, executor)


def lfs_overheads(
    cpus: Optional[Sequence[CPUModel]] = None,
    workloads: Optional[Sequence[lfs.LFSWorkload]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[PairedOverhead]:
    """LFS smallfile/largefile: host mitigations on vs off (<2% median)."""
    return sweep("lfs", cpus, settings, executor, workloads)
