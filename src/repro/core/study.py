"""End-to-end experiment drivers: one function per paper figure/finding.

Each driver enumerates its sweep as independent (cpu, config, workload,
settings) **cells** — :class:`~repro.core.executor.CellSpec`s — and hands
them to a :class:`~repro.core.executor.StudyExecutor`, which runs them
inline (the serial path), fans them out over a process pool (``jobs>1``)
or satisfies them from the persistent result cache.  Measurement is
delegated to the attribution harness (Figures 2 and 3) or direct paired
measurement (Figure 5, section 4.4/4.5 findings).

Every cell derives its own noise seed from the spec path
(:meth:`CellSpec.seed`), on the serial and parallel paths alike: distinct
(cpu, config, workload) cells must never consume identical noise
streams, or their errors correlate and bias the attribution stacks.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..cpu.machine import Machine
from ..cpu.model import CPUModel, all_cpus, get_cpu
from ..jsengine import octane
from ..obs import spans as obs_spans
from ..mitigations.base import (
    JS_KNOBS,
    KERNEL_KNOBS,
    Knob,
    KNOBS_BY_NAME,
    MitigationConfig,
)
from ..mitigations.policy import linux_default
from ..workloads import lebench, lfs, parsec, vm_lebench
from .attribution import CYCLES, SCORE, AttributionResult, attribute_overhead
from .stats import (
    DEFAULT_NOISE_SIGMA,
    Measurement,
    NoisySampler,
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


def _executor(executor: Optional["StudyExecutor"]) -> "StudyExecutor":
    from .executor import StudyExecutor
    return executor if executor is not None else StudyExecutor()


# --------------------------------------------------------------------------- #
# Figure 2: LEBench overhead, attributed per mitigation
# --------------------------------------------------------------------------- #

def lebench_geomean(cpu: CPUModel, config: MitigationConfig,
                    settings: Settings, seed: Optional[int] = None) -> float:
    """Suite-level metric: geometric mean of per-case cycles/op."""
    seed = settings.seed if seed is None else seed
    results = lebench.run_suite(
        Machine(cpu, seed=seed), config,
        iterations=settings.iterations, warmup=settings.warmup,
    )
    return suite_geometric_mean(
        results, context=f"lebench on {cpu.key}, {config_label(config)}")


def _figure2_cell(spec) -> AttributionResult:
    cpu = get_cpu(spec.cpu)
    settings = spec.settings
    seed = spec.seed()
    tracer = obs_spans.current_tracer()
    run_fn = lambda config, machine_seed: lebench_geomean(
        cpu, config, settings, seed=machine_seed)
    with tracer.span(f"study.figure2.{cpu.key}", cpu=cpu.key,
                     workload="lebench"):
        return attribute_overhead(
            run_fn, linux_default(cpu), FIGURE2_KNOBS,
            cpu=cpu.key, workload="lebench", metric=CYCLES,
            sigma=settings.sigma, rel_tol=settings.rel_tol,
            max_samples=settings.max_samples, seed=seed,
            replicas=settings.replicas,
        )


def figure2(
    cpus: Optional[Sequence[CPUModel]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[AttributionResult]:
    """The paper's Figure 2: per-CPU LEBench overhead attribution."""
    from .executor import CellSpec
    settings = settings or Settings()
    specs = [CellSpec("figure2", cpu.key, "lebench", settings)
             for cpu in cpus or all_cpus()]
    return _executor(executor).run(specs)


# --------------------------------------------------------------------------- #
# Figure 3: Octane 2 slowdown, attributed per mitigation
# --------------------------------------------------------------------------- #

def octane_suite_score(cpu: CPUModel, config: MitigationConfig,
                       settings: Settings, seed: Optional[int] = None) -> float:
    seed = settings.seed if seed is None else seed
    scores = octane.run_suite(
        Machine(cpu, seed=seed), config,
        iterations=settings.iterations, warmup=settings.warmup,
    )
    return octane.suite_score(scores)


def _figure3_cell(spec) -> AttributionResult:
    cpu = get_cpu(spec.cpu)
    settings = spec.settings
    seed = spec.seed()
    tracer = obs_spans.current_tracer()
    run_fn = lambda config, machine_seed: octane_suite_score(
        cpu, config, settings, seed=machine_seed)
    with tracer.span(f"study.figure3.{cpu.key}", cpu=cpu.key,
                     workload="octane2"):
        return attribute_overhead(
            run_fn, linux_default(cpu), FIGURE3_KNOBS,
            cpu=cpu.key, workload="octane2", metric=SCORE,
            sigma=settings.sigma, rel_tol=settings.rel_tol,
            max_samples=settings.max_samples, seed=seed,
            replicas=settings.replicas,
        )


def figure3(
    cpus: Optional[Sequence[CPUModel]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[AttributionResult]:
    """The paper's Figure 3: Octane 2 slowdown attribution per CPU."""
    from .executor import CellSpec
    settings = settings or Settings()
    specs = [CellSpec("figure3", cpu.key, "octane2", settings)
             for cpu in cpus or all_cpus()]
    return _executor(executor).run(specs)


# --------------------------------------------------------------------------- #
# Figure 5 and section 4.5: PARSEC
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
    from ..cpu import replicas as replicabatch

    def measure(run_fn: Callable[[int], float], tag: str) -> Measurement:
        values = replicabatch.run_replicas(run_fn, seed=seed,
                                           n=settings.replicas)
        sampler = NoisySampler(itertools.cycle(values).__next__,
                               settings.sigma, derive_seed(seed, tag))
        return adaptive_measure(sampler, rel_tol=settings.rel_tol,
                                max_samples=settings.max_samples)

    base = measure(base_fn, "base")
    treat = measure(treat_fn, "treat")
    pct = 100.0 * (treat.mean / base.mean - 1.0)
    return PairedOverhead(cpu=cpu.key, workload=workload, baseline=base,
                          treated=treat, overhead_percent=pct)


def _parsec_workload(name: str) -> parsec.PARSECWorkload:
    for workload in parsec.SUITE:
        if workload.name == name:
            return workload
    raise ValueError(f"unknown PARSEC workload {name!r}; "
                     f"known: {[w.name for w in parsec.SUITE]}")


def _named_workloads(requested, suite, label: str):
    """Validate a driver's ``workloads`` argument against the suite.

    The executor addresses cells by workload *name* (names are what
    hashes, caches, and crosses process boundaries), so ad-hoc workload
    objects must go through the suite runners directly instead.
    """
    if requested is None:
        return list(suite)
    by_name = {w.name: w for w in suite}
    out = []
    for workload in requested:
        known = by_name.get(workload.name)
        if known != workload:
            raise ValueError(
                f"{label} workload {workload.name!r} is not the suite "
                f"definition; custom workloads cannot be cell-addressed — "
                f"run them via the workload module directly")
        out.append(known)
    return out


def _figure5_cell(spec) -> PairedOverhead:
    cpu = get_cpu(spec.cpu)
    workload = _parsec_workload(spec.workload)
    settings = spec.settings
    seed = spec.seed()
    tracer = obs_spans.current_tracer()
    with tracer.span(f"study.figure5.{cpu.key}", cpu=cpu.key,
                     workload="parsec"):
        return _paired(
            cpu, workload.name,
            lambda machine_seed: parsec.run_workload(
                Machine(cpu, seed=machine_seed), linux_default(cpu), workload,
                force_ssbd=False, iterations=settings.iterations,
                warmup=settings.warmup),
            lambda machine_seed: parsec.run_workload(
                Machine(cpu, seed=machine_seed), linux_default(cpu), workload,
                force_ssbd=True, iterations=settings.iterations,
                warmup=settings.warmup),
            settings, seed=seed,
        )


def figure5(
    cpus: Optional[Sequence[CPUModel]] = None,
    workloads: Optional[Sequence[parsec.PARSECWorkload]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[PairedOverhead]:
    """The paper's Figure 5: SSBD slowdown on the PARSEC trio."""
    from .executor import CellSpec
    settings = settings or Settings()
    selected = _named_workloads(workloads, parsec.SUITE, "PARSEC")
    specs = [CellSpec("figure5", cpu.key, workload.name, settings)
             for cpu in cpus or all_cpus()
             for workload in selected]
    return _executor(executor).run(specs)


def _parsec_default_cell(spec) -> PairedOverhead:
    cpu = get_cpu(spec.cpu)
    workload = _parsec_workload(spec.workload)
    settings = spec.settings
    seed = spec.seed()
    tracer = obs_spans.current_tracer()
    with tracer.span(f"study.parsec.{cpu.key}", cpu=cpu.key,
                     workload="parsec"):
        return _paired(
            cpu, workload.name,
            lambda machine_seed: parsec.run_workload(
                Machine(cpu, seed=machine_seed), MitigationConfig.all_off(),
                workload, iterations=settings.iterations,
                warmup=settings.warmup),
            lambda machine_seed: parsec.run_workload(
                Machine(cpu, seed=machine_seed), linux_default(cpu), workload,
                iterations=settings.iterations, warmup=settings.warmup),
            settings, seed=seed,
        )


def parsec_default_overheads(
    cpus: Optional[Sequence[CPUModel]] = None,
    workloads: Optional[Sequence[parsec.PARSECWorkload]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[PairedOverhead]:
    """Section 4.5: default mitigations on compute workloads (~0%)."""
    from .executor import CellSpec
    settings = settings or Settings()
    selected = _named_workloads(workloads, parsec.SUITE, "PARSEC")
    specs = [CellSpec("parsec_default", cpu.key, workload.name, settings)
             for cpu in cpus or all_cpus()
             for workload in selected]
    return _executor(executor).run(specs)


# --------------------------------------------------------------------------- #
# Section 4.4: virtual machine workloads
# --------------------------------------------------------------------------- #

def _vm_lebench_cell(spec) -> PairedOverhead:
    cpu = get_cpu(spec.cpu)
    settings = spec.settings
    seed = spec.seed()

    def run(host_config: MitigationConfig, machine_seed: int) -> float:
        results = vm_lebench.run_suite(
            Machine(cpu, seed=machine_seed), host_config,
            iterations=settings.iterations, warmup=settings.warmup)
        return suite_geometric_mean(
            results,
            context=f"vm_lebench on {cpu.key}, {config_label(host_config)}")

    tracer = obs_spans.current_tracer()
    with tracer.span(f"study.vm_lebench.{cpu.key}", cpu=cpu.key,
                     workload="vm_lebench"):
        return _paired(
            cpu, "vm_lebench",
            lambda machine_seed: run(MitigationConfig.all_off(), machine_seed),
            lambda machine_seed: run(linux_default(cpu), machine_seed),
            settings, seed=seed,
        )


def vm_lebench_overheads(
    cpus: Optional[Sequence[CPUModel]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[PairedOverhead]:
    """LEBench in a guest: host mitigations on vs off (±3% band)."""
    from .executor import CellSpec
    settings = settings or Settings()
    specs = [CellSpec("vm_lebench", cpu.key, "vm_lebench", settings)
             for cpu in cpus or all_cpus()]
    return _executor(executor).run(specs)


def _lfs_workload(name: str) -> lfs.LFSWorkload:
    for workload in lfs.SUITE:
        if workload.name == name:
            return workload
    raise ValueError(f"unknown LFS workload {name!r}; "
                     f"known: {[w.name for w in lfs.SUITE]}")


def _lfs_cell(spec) -> PairedOverhead:
    cpu = get_cpu(spec.cpu)
    workload = _lfs_workload(spec.workload)
    settings = spec.settings
    seed = spec.seed()
    iters = max(4, settings.iterations // 3)
    warm = max(1, settings.warmup // 3)
    tracer = obs_spans.current_tracer()
    with tracer.span(f"study.lfs.{cpu.key}", cpu=cpu.key, workload="lfs"):
        return _paired(
            cpu, workload.name,
            lambda machine_seed: lfs.run_workload(
                Machine(cpu, seed=machine_seed), MitigationConfig.all_off(),
                workload, iterations=iters, warmup=warm),
            lambda machine_seed: lfs.run_workload(
                Machine(cpu, seed=machine_seed), linux_default(cpu), workload,
                iterations=iters, warmup=warm),
            settings, seed=seed,
        )


def lfs_overheads(
    cpus: Optional[Sequence[CPUModel]] = None,
    workloads: Optional[Sequence[lfs.LFSWorkload]] = None,
    settings: Optional[Settings] = None,
    executor: Optional["StudyExecutor"] = None,
) -> List[PairedOverhead]:
    """LFS smallfile/largefile: host mitigations on vs off (<2% median)."""
    from .executor import CellSpec
    settings = settings or Settings()
    selected = _named_workloads(workloads, lfs.SUITE, "LFS")
    specs = [CellSpec("lfs", cpu.key, workload.name, settings)
             for cpu in cpus or all_cpus()
             for workload in selected]
    return _executor(executor).run(specs)


# --------------------------------------------------------------------------- #
# The driver registry the executor dispatches through
# --------------------------------------------------------------------------- #

#: driver name -> cell runner (must stay importable for worker processes).
CELL_RUNNERS = {
    "figure2": _figure2_cell,
    "figure3": _figure3_cell,
    "figure5": _figure5_cell,
    "parsec_default": _parsec_default_cell,
    "vm_lebench": _vm_lebench_cell,
    "lfs": _lfs_cell,
}

#: driver name -> result kind ("attribution" or "paired").
DRIVER_KINDS = {
    "figure2": "attribution",
    "figure3": "attribution",
    "figure5": "paired",
    "parsec_default": "paired",
    "vm_lebench": "paired",
    "lfs": "paired",
}
