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

from ..errors import StatisticsError

#: Default run-to-run relative noise (sigma): "a couple percent".
DEFAULT_NOISE_SIGMA = 0.015

#: ``scipy.stats.t.ppf(0.5 + 0.95 / 2.0, df)`` for ``df`` = 1..99, the
#: two-sided 95% t quantiles of every interval :func:`adaptive_measure`
#: forms at its default ``max_samples=100``.  Committed (each entry is the
#: ``repr`` of scipy's float) so that importing this module does not load
#: scipy, and checked against scipy in ``tests/core/test_stats.py``.
T95_QUANTILES = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205, 2.228138851986274,
    2.200985160091639, 2.1788128296672284, 2.1603686564627913,
    2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087,
    2.085963447265864, 2.0796138447276795, 2.0738730679040254,
    2.0686576104190486, 2.0638985616280245, 2.0595385527532972,
    2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408,
    2.0369333434601016, 2.0345152974493383, 2.0322445093177186,
    2.030107928250343, 2.0280940009804502, 2.0261924630291093,
    2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824,
    2.0153675744437636, 2.014103388880846, 2.012895598919429,
    2.0117405137297655, 2.010634757624232, 2.0095752371292392,
    2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455,
    2.003240718847872, 2.002465459291007, 2.0017174841452356,
    2.000995378088267, 2.0002978220142604, 1.999623584994939,
    1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296,
    1.9954689314298435, 1.9949454151072374, 1.994437111771186,
    1.9939433678456255, 1.9934635666618719, 1.992997125889855,
    1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285,
    1.990063421254446, 1.9896863234569029, 1.989318557136572,
    1.9889597801751624, 1.9886096669757083, 1.9882679074772216,
    1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177,
    1.98608631695113, 1.9858018143458227, 1.985523441866604,
    1.9852510035054978, 1.984984311522457, 1.9847231860139845,
    1.9844674545084815, 1.9842169515864174,
)


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
    """Mean and t-distribution CI half-width of ``samples``.

    The 95% quantile comes from :data:`T95_QUANTILES` up to 100 samples;
    any other ``(confidence, df)`` pair imports scipy to compute it.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must lie strictly between 0 and 1, got "
            f"{confidence!r}")
    n = len(samples)
    if n == 0:
        raise StatisticsError("cannot form a confidence interval from no samples")
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    if n == 1:
        return Measurement(mean=mean, ci_half_width=math.inf, samples=1)
    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    df = n - 1
    if confidence == 0.95 and df <= len(T95_QUANTILES):
        t_crit = T95_QUANTILES[df - 1]
    else:
        from scipy import stats as scipy_stats
        t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df))
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
