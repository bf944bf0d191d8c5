"""The paper's contribution: measurement, attribution, probing, reporting.

* :mod:`~repro.core.stats` — section 4.1 methodology (CIs, adaptive runs)
* :mod:`~repro.core.microbench` — section 5 primitive timings (Tables 3-8)
* :mod:`~repro.core.attribution` — successive-disable overhead attribution
* :mod:`~repro.core.study` — per-figure experiment drivers
* :mod:`~repro.core.probe` — section 6 speculation probe (Tables 9-10)
* :mod:`~repro.core.reporting` — paper-shaped text rendering
"""

from .attribution import (
    CYCLES,
    SCORE,
    AttributionResult,
    Contribution,
    attribute_overhead,
)
from .executor import (
    CellSpec,
    ResultCache,
    RunStats,
    StudyExecutor,
    default_cache_dir,
)
from .probe import (
    KERNEL_TO_USER,
    SCENARIOS,
    Scenario,
    SpeculationProbe,
    leakage_report,
    probe_cell,
)
from .stats import (
    Measurement,
    NoisySampler,
    adaptive_measure,
    confidence_interval,
    derive_seed,
    geometric_mean,
    overhead_percent,
    score_slowdown_percent,
    suite_geometric_mean,
)
from .sweeps import (
    SweepResult,
    find_crossover,
    overhead_vs_operation_size,
    ssbd_overhead_vs_forwarding_density,
    sweep,
)
from .study import (
    FIGURE2_KNOBS,
    FIGURE3_KNOBS,
    PairedOverhead,
    Settings,
    figure2,
    figure3,
    figure5,
    lebench_geomean,
    lfs_overheads,
    octane_suite_score,
    parsec_default_overheads,
    vm_lebench_overheads,
)

__all__ = [
    "AttributionResult",
    "CYCLES",
    "CellSpec",
    "Contribution",
    "FIGURE2_KNOBS",
    "FIGURE3_KNOBS",
    "KERNEL_TO_USER",
    "Measurement",
    "NoisySampler",
    "PairedOverhead",
    "ResultCache",
    "RunStats",
    "SCENARIOS",
    "SCORE",
    "Scenario",
    "Settings",
    "SpeculationProbe",
    "StudyExecutor",
    "SweepResult",
    "adaptive_measure",
    "attribute_overhead",
    "default_cache_dir",
    "derive_seed",
    "find_crossover",
    "overhead_vs_operation_size",
    "ssbd_overhead_vs_forwarding_density",
    "sweep",
    "confidence_interval",
    "figure2",
    "figure3",
    "figure5",
    "geometric_mean",
    "leakage_report",
    "lebench_geomean",
    "lfs_overheads",
    "octane_suite_score",
    "overhead_percent",
    "parsec_default_overheads",
    "probe_cell",
    "score_slowdown_percent",
    "suite_geometric_mean",
    "vm_lebench_overheads",
]
