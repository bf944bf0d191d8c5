"""Per-mitigation overhead attribution: the paper's core method.

Section 4.1: "we run Linux with the default set of mitigations enabled,
and then use kernel boot parameters to successively disable them to
determine the overhead that each one causes."

:func:`attribute_overhead` walks a knob chain from the default config to
all-off, measuring each intermediate configuration (with run-to-run noise
and the adaptive CI methodology), and attributes the measured difference
between consecutive configurations to the knob flipped between them.
Whatever remains between the last knob and true all-off is the "other"
residual the paper plots as the unlabelled remainder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from ..mitigations.base import Knob, MitigationConfig
from .stats import (
    DEFAULT_NOISE_SIGMA,
    Measurement,
    NoisySampler,
    adaptive_measure,
    derive_seed,
)

#: Signature of a deterministic experiment: (config, machine_seed) ->
#: metric value.  The runner must seed every machine it builds from
#: ``machine_seed`` so seeded replicas can be enumerated (see
#: repro.cpu.replicas).
RunFn = Callable[[MitigationConfig, int], float]

#: Metric directions.
CYCLES = "cycles"   # lower is better (LEBench, PARSEC, LFS)
SCORE = "score"     # higher is better (Octane)


@dataclass(frozen=True)
class Contribution:
    """Overhead attributable to one mitigation knob."""

    knob: str
    boot_param: str
    #: Percent of baseline performance this knob costs (>= 0 modulo noise).
    percent: float
    with_knob: Measurement
    without_knob: Measurement

    @property
    def significant(self) -> bool:
        """Did disabling the knob move the metric beyond the CIs?"""
        return not self.with_knob.overlaps(self.without_knob)


@dataclass
class AttributionResult:
    """Full successive-disable attribution for one (CPU, workload)."""

    cpu: str
    workload: str
    metric: str
    baseline: Measurement          # every mitigation off
    default: Measurement           # stock configuration
    contributions: List[Contribution] = field(default_factory=list)
    other_percent: float = 0.0     # residual not covered by any knob

    @property
    def total_overhead_percent(self) -> float:
        """Default-config slowdown relative to all-off, in percent."""
        if self.metric == SCORE:
            return 100.0 * (1.0 - self.default.mean / self.baseline.mean)
        return 100.0 * (self.default.mean / self.baseline.mean - 1.0)

    def contribution_for(self, knob: str) -> Optional[Contribution]:
        for contribution in self.contributions:
            if contribution.knob == knob:
                return contribution
        return None

    def as_dict(self) -> Dict[str, float]:
        """Knob -> percent mapping (plus ``other``), for plotting."""
        out = {c.knob: c.percent for c in self.contributions}
        out["other"] = self.other_percent
        return out


def measure_arm(
    run_fn: Callable[[int], float],
    machine_seed: int,
    noise_seed: int,
    sigma: float,
    rel_tol: float,
    max_samples: int,
    replicas: int,
) -> Measurement:
    """Measure one configuration with the section-4.1 methodology.

    ``run_fn(machine_seed)`` runs the configuration's simulation.  The
    simulator is deterministic per machine seed, so each of ``replicas``
    seeded replicas is computed once (:mod:`repro.cpu.replicas` runs one
    simulation per distinct scrub schedule).  The run-to-run variability
    of real hardware is layered on by a :class:`NoisySampler` seeded with
    ``noise_seed`` cycling over those values, and :func:`adaptive_measure`
    converges the mean back out of the noise.  Every configuration a
    study measures goes through here: each step of the knob chain below
    and both arms of a paired study cell.
    """
    from ..cpu import replicas as replicabatch
    values = replicabatch.run_replicas(run_fn, seed=machine_seed, n=replicas)
    sampler = NoisySampler(itertools.cycle(values).__next__, sigma, noise_seed)
    return adaptive_measure(sampler, rel_tol=rel_tol, max_samples=max_samples)


def attribute_overhead(
    run_fn: RunFn,
    default_config: MitigationConfig,
    knobs: Sequence[Knob],
    cpu: str,
    workload: str,
    metric: str = CYCLES,
    sigma: float = DEFAULT_NOISE_SIGMA,
    rel_tol: float = 0.005,
    max_samples: int = 60,
    seed: int = 0,
    replicas: int = 1,
) -> AttributionResult:
    """Successively disable ``knobs`` starting from ``default_config``.

    Knobs that do not change the configuration on this CPU (e.g. ``nopti``
    on an AMD part) are skipped without measurement — their contribution
    is structurally zero, matching the blank cells of Table 1.

    ``run_fn(config, machine_seed)`` runs the cell with an explicit
    machine seed.  Each configuration averages its noise samples over
    ``replicas`` seeded replicas; replica 0 uses ``seed`` itself, so
    ``replicas=1`` is the classic single-run measurement.
    """
    if metric not in (CYCLES, SCORE):
        raise ValueError(f"unknown metric {metric!r}")

    # The cell's machines are seeded with the caller's seed as passed
    # (replica 0 of every config re-runs exactly the classic cell run);
    # the *noise* streams below are decorrelated across CPUs/workloads —
    # real machines don't share their jitter (see stats.derive_seed).
    machine_seed = seed
    seed = derive_seed(seed, cpu, workload)
    effort = (sigma, rel_tol, max_samples, replicas)

    baseline = measure_arm(partial(run_fn, MitigationConfig.all_off()),
                           machine_seed, seed ^ 0x5A5A, *effort)
    current_config = default_config
    current = measure_arm(partial(run_fn, current_config), machine_seed, seed,
                          *effort)
    result = AttributionResult(
        cpu=cpu, workload=workload, metric=metric,
        baseline=baseline, default=current,
    )

    for index, knob in enumerate(knobs, start=1):
        next_config = knob.disable(current_config)
        if next_config == current_config:
            continue  # mitigation not in use on this part
        nxt = measure_arm(partial(run_fn, next_config), machine_seed,
                          seed + index, *effort)
        if metric == SCORE:
            percent = 100.0 * (nxt.mean - current.mean) / baseline.mean
        else:
            percent = 100.0 * (current.mean - nxt.mean) / baseline.mean
        result.contributions.append(Contribution(
            knob=knob.name,
            boot_param=knob.boot_param,
            percent=percent,
            with_knob=current,
            without_knob=nxt,
        ))
        current_config, current = next_config, nxt

    if metric == SCORE:
        result.other_percent = 100.0 * (baseline.mean - current.mean) / baseline.mean
    else:
        result.other_percent = 100.0 * (current.mean - baseline.mean) / baseline.mean
    return result
