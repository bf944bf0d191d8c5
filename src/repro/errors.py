"""Exception hierarchy for the spectresim reproduction library.

All library-raised exceptions derive from :class:`SpectreSimError` so callers
can catch everything from this package with a single except clause.
"""

from __future__ import annotations


class SpectreSimError(Exception):
    """Base class for all errors raised by this library."""


class UnknownCPUError(SpectreSimError, KeyError):
    """Raised when a CPU key is not present in the catalog."""

    def __init__(self, key: str, known: tuple) -> None:
        super().__init__(f"unknown CPU {key!r}; known CPUs: {', '.join(known)}")
        self.key = key
        self.known = known


class UnsupportedFeatureError(SpectreSimError):
    """Raised when a CPU is asked to use a feature it does not implement.

    For example enabling IBRS on the original Zen, which has no IBRS
    support (Table 10 in the paper marks it N/A).
    """


class ConfigurationError(SpectreSimError):
    """Raised for invalid or inconsistent mitigation configurations."""


class SegmentationFault(SpectreSimError):
    """Raised when simulated code architecturally accesses memory it must not.

    Transient (speculative) accesses never raise; they are squashed.  Only
    committed accesses to unmapped or privileged memory raise this error,
    mirroring a hardware fault delivered to the OS.
    """

    def __init__(self, address: int, mode: str) -> None:
        super().__init__(f"fault at address {address:#x} in mode {mode}")
        self.address = address
        self.mode = mode


class WorkloadError(SpectreSimError):
    """Raised when a workload definition is malformed or cannot run."""


class ProgramParseError(SpectreSimError, ValueError):
    """Raised when a fuzz program or reproducer text does not parse; the
    message names the offending line."""


class ExecutorError(SpectreSimError):
    """Raised when a study execution cell fails, naming the cell.

    Wraps the underlying exception so a crash in one (cpu, config,
    workload) cell of a parallel sweep is attributable without digging
    through worker-process tracebacks; the original exception rides along
    as ``__cause__``.
    """


class StatisticsError(SpectreSimError):
    """Raised when a measurement cannot produce a valid statistic.

    For example requesting a confidence interval from zero samples.
    """


class LedgerInvariantError(SpectreSimError):
    """Raised when cycle-attribution accounting does not balance.

    The cycle ledger must sum exactly to the TSC delta of the machines
    it is attached to; any drift means a charge site bypassed
    ``PerfCounters.add_cycles`` and its cycles are unattributed.
    """


class UnknownCounterError(SpectreSimError, KeyError):
    """Raised when a performance counter name is not in the canonical set.

    Counter names drift silently otherwise: a typo in a ``bump`` call
    creates a fresh counter instead of incrementing the intended one.
    """

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown counter {name!r}; canonical names are defined in "
            f"repro.cpu.counters")
        self.name = name


class BaselineError(SpectreSimError):
    """Raised for malformed, missing, or incompatible bench baselines."""


class HistoryError(SpectreSimError):
    """Raised for run-history store failures.

    Covers missing runs, a store that cannot be opened or is in another
    on-disk layout, and recording a payload whose code fingerprint does
    not match the running code (which would silently mix rows from
    different code in one trend line; pass ``--allow-dirty`` to record it
    flagged instead).
    """
