"""Measurement statistics: the paper's section 4.1 methodology.

"We adopted a methodology of running each benchmark configuration many
times while tracking the average and 95%-confidence interval, stopping
once the error was small enough.  Benchmark scores for individual runs of
the same configuration would vary by a couple percent each time."

:func:`adaptive_measure` is that loop; :class:`NoisySampler` reproduces
the couple-percent run-to-run variation on top of the deterministic
simulator so the convergence machinery has real work to do.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Sequence

import numpy as np
from scipy import stats as scipy_stats

from ..errors import StatisticsError

#: Default run-to-run relative noise (sigma): "a couple percent".
DEFAULT_NOISE_SIGMA = 0.015


def derive_seed(base: int, *parts: str) -> int:
    """A stable per-cell seed: ``base`` mixed with a hash of ``parts``.

    Every sweep cell — one (driver, cpu, config, workload) point of a
    study grid — must consume its *own* noise stream: real machines do
    not share their jitter, and reusing one seed across cells correlates
    their errors, turning noise into a systematic-looking bias in the
    attribution stacks.  ``zlib.crc32`` rather than ``hash()`` keeps the
    derivation stable across interpreter runs and worker processes, so
    parallel and serial executions of the same cell are bit-identical.

    Parts must not contain the ``"/"`` separator: the joined key would be
    ambiguous (``("a/b", "c")`` and ``("a", "b/c")`` would collide and
    silently correlate two cells' noise streams).  Rejecting rather than
    escaping keeps every existing legal key — and therefore every cached
    cell and recorded baseline — bit-identical.
    """
    for part in parts:
        if "/" in part:
            raise ValueError(
                f"derive_seed part {part!r} contains the '/' separator; "
                f"distinct part tuples would collide on the joined key")
    return (base + zlib.crc32("/".join(parts).encode())) & 0x7FFF_FFFF


@dataclass(frozen=True)
class Measurement:
    """A converged measurement: mean with a 95% confidence interval."""

    mean: float
    ci_half_width: float
    samples: int

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width

    @property
    def relative_error(self) -> float:
        """CI half-width as a fraction of the mean."""
        if self.mean == 0:
            return math.inf
        return abs(self.ci_half_width / self.mean)

    def overlaps(self, other: "Measurement") -> bool:
        """Do the two 95% CIs overlap (i.e. no significant difference)?"""
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} ± {self.ci_half_width:.2g} (n={self.samples})"


def confidence_interval(samples: Sequence[float], confidence: float = 0.95) -> Measurement:
    """Mean and t-distribution CI half-width of ``samples``."""
    n = len(samples)
    if n == 0:
        raise StatisticsError("cannot form a confidence interval from no samples")
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    if n == 1:
        return Measurement(mean=mean, ci_half_width=math.inf, samples=1)
    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return Measurement(mean=mean, ci_half_width=t_crit * sem, samples=n)


def adaptive_measure(
    sample: Callable[[], float],
    rel_tol: float = 0.01,
    min_samples: int = 5,
    max_samples: int = 100,
    confidence: float = 0.95,
) -> Measurement:
    """Repeat ``sample()`` until the CI is tight enough (section 4.1).

    Stops when the 95% CI half-width falls below ``rel_tol`` of the mean,
    or at ``max_samples`` (the paper's runs also have to end eventually).
    """
    if min_samples < 2:
        raise ValueError("need at least 2 samples for a confidence interval")
    if max_samples < min_samples:
        raise ValueError(
            f"max_samples ({max_samples}) must be >= min_samples "
            f"({min_samples}): the adaptive loop could never return a "
            f"legal sample count")
    if rel_tol <= 0:
        raise ValueError(
            f"rel_tol must be positive, got {rel_tol!r}: a non-positive "
            f"tolerance can never be met, so every measurement would "
            f"silently burn max_samples")
    values: List[float] = [sample() for _ in range(min_samples)]
    while True:
        m = confidence_interval(values, confidence)
        if m.relative_error <= rel_tol or len(values) >= max_samples:
            return m
        values.append(sample())


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (LEBench and Octane suite aggregation)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise StatisticsError("geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise StatisticsError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def suite_geometric_mean(per_case: Mapping[str, float], context: str = "") -> float:
    """Geometric mean of a ``case name -> value`` suite mapping.

    Unlike :func:`geometric_mean`, a zero/negative (or non-finite) value
    raises a :class:`StatisticsError` that *names the offending case* and
    carries the caller's context (cpu/config), so a broken LEBench or
    Octane case is diagnosable from the exception alone instead of a bare
    "requires positive values".
    """
    suffix = f" [{context}]" if context else ""
    if not per_case:
        raise StatisticsError(f"geometric mean of an empty suite{suffix}")
    for name, value in per_case.items():
        if not math.isfinite(value) or value <= 0:
            raise StatisticsError(
                f"geometric mean requires positive values: "
                f"case {name!r} = {value!r}{suffix}")
    return geometric_mean(per_case.values())


def overhead_percent(mitigated: float, baseline: float) -> float:
    """Slowdown of ``mitigated`` relative to ``baseline``, in percent.

    For cycle counts (lower better): positive means the mitigation costs.
    """
    if baseline <= 0:
        raise StatisticsError("baseline must be positive")
    return 100.0 * (mitigated / baseline - 1.0)


def score_slowdown_percent(mitigated_score: float, baseline_score: float) -> float:
    """Percent score decrease (Octane semantics: higher score is better)."""
    if baseline_score <= 0:
        raise StatisticsError("baseline score must be positive")
    return 100.0 * (1.0 - mitigated_score / baseline_score)


class NoisySampler:
    """Wraps a deterministic cycle/score function with run-to-run noise.

    Real machines vary a couple percent between runs of the same
    configuration (section 4.1); the simulator is deterministic, so this
    multiplicative log-normal-ish noise restores that property — seeded,
    hence reproducible.  ``fn`` is called once per sample, so sampling
    over seeded replicas (:mod:`repro.cpu.replicas`) passes
    ``itertools.cycle(values).__next__``.
    """

    def __init__(self, fn: Callable[[], float], sigma: float = DEFAULT_NOISE_SIGMA,
                 seed: int = 0) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self._fn = fn
        self._sigma = sigma
        self._rng = np.random.default_rng(seed)

    def __call__(self) -> float:
        value = float(self._fn())
        if self._sigma == 0:
            return value
        return value * float(np.exp(self._rng.normal(0.0, self._sigma)))
