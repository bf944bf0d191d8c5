"""Bench snapshots and the noise-aware regression gate.

``spectresim bench`` runs the pinned study grid and freezes everything a
future run can be compared against into a versioned ``BENCH_<n>.json``:

* **values** — every attributed overhead percentage the study drivers
  produce (per cell, per mitigation knob), each with a propagated
  measurement uncertainty derived from the stored
  :class:`~repro.core.stats.Measurement` confidence intervals;
* **ledger rollups** — deterministic per-CPU cycle-attribution ledgers
  (see :mod:`repro.obs.ledger`) from an instrumented reference run, so a
  drifted cost is *localized* to its ``(layer, mitigation, primitive)``
  path, not just detected;
* **leakage surface** — the taint-oracle blocked/leaked matrix from
  :mod:`repro.obs.leakage` over every CPU model under the default
  policy, so a mitigation that silently stops clearing its state shows
  up as a flipped cell, not just a cycle delta;
* **provenance** — the usual manifest (seed, versions, fingerprint).

The payload is the one result format: ``spectresim export`` writes it
for a single driver, and ``spectresim history diff`` compares any two,
whether files or recorded runs.

``spectresim check --against BENCH_1.json`` re-runs the same grid (the
baseline records its own cpus/settings, so the comparison is apples to
apples) and diffs.  Tolerances are noise-aware: a value regresses only
when it moves by more than ``sigma_multiplier × hypot(u_old, u_new)``
plus an absolute floor — i.e. beyond what the recorded measurement
dispersion can explain.  Ledger entries are deterministic integers and
compared with a plain relative tolerance (zero by default).  On any
regression the report blames the drifted ledger paths that belong to
the regressed knob, and the CLI exits nonzero.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import BaselineError, LedgerInvariantError, UnknownCPUError
from .history import (
    DEFAULT_LEDGER_REL_TOL,
    DEFAULT_MIN_PERCENT_POINTS,
    DEFAULT_SIGMA_MULTIPLIER,
    RunDiff,
    diff_payloads,
    render_diff,
)
from .ledger import CycleLedger, split_path
from .observers import use_observers
from .provenance import build_manifest

#: Bench schema version (bump on incompatible payload changes).
SCHEMA_VERSION = 1

#: Payload kind marker.
BENCH_KIND = "spectresim-bench"

#: Default pinned CPUs: one Meltdown-vulnerable part (PTI/KPTI active in
#: the default config) and one with hardware fixes, so both mitigation
#: families appear in the baseline.
DEFAULT_BENCH_CPUS: Tuple[str, ...] = ("broadwell", "cascade_lake")

#: The study drivers ``bench`` accepts (rows of ``study.DRIVERS``), and
#: the default subset it snapshots.
BENCH_DRIVERS: Tuple[str, ...] = ("figure2", "figure3", "figure5",
                                  "parsec_default", "vm_lebench")
DEFAULT_BENCH_DRIVERS: Tuple[str, ...] = ("figure2", "figure3", "figure5")

#: Iteration counts for the deterministic instrumented ledger reference
#: run (not noise-sampled; exact integers, reproducible across hosts).
LEDGER_ITERATIONS = 4
LEDGER_WARMUP = 1

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def get_cpu(key: str):
    """Resolve a CPU key (lazy import; monkeypatchable seam for tests)."""
    from ..cpu.model import get_cpu as _get_cpu
    return _get_cpu(key)


# --------------------------------------------------------------------------- #
# Uncertainty propagation from stored Measurement CIs
# --------------------------------------------------------------------------- #

def _rel(measurement) -> float:
    if measurement.mean == 0:
        return 0.0
    return abs(measurement.ci_half_width / measurement.mean)


def _ratio_uncertainty(numer, denom) -> float:
    """Half-width of 100·(numer/denom) given both Measurements' CIs."""
    if denom.mean == 0:
        return 0.0
    ratio = abs(numer.mean / denom.mean)
    return 100.0 * ratio * math.hypot(_rel(numer), _rel(denom))


def _attribution_values(driver: str, result) -> Dict[str, Dict[str, float]]:
    prefix = f"{driver}/{result.cpu}/{result.workload}"
    total_u = _ratio_uncertainty(result.default, result.baseline)
    values = {
        f"{prefix}:total": {
            "value": result.total_overhead_percent,
            "uncertainty": total_u,
        },
        f"{prefix}:other": {
            "value": result.other_percent,
            "uncertainty": total_u,
        },
    }
    base_mean = result.baseline.mean
    for c in result.contributions:
        if base_mean:
            u = 100.0 * math.hypot(c.with_knob.ci_half_width,
                                   c.without_knob.ci_half_width) / abs(base_mean)
        else:
            u = 0.0
        values[f"{prefix}:{c.knob}"] = {"value": c.percent, "uncertainty": u}
    return values


def _paired_values(driver: str, result) -> Dict[str, Dict[str, float]]:
    prefix = f"{driver}/{result.cpu}/{result.workload}"
    return {
        f"{prefix}:overhead": {
            "value": result.overhead_percent,
            "uncertainty": _ratio_uncertainty(result.treated, result.baseline),
        },
    }


# --------------------------------------------------------------------------- #
# Collection
# --------------------------------------------------------------------------- #

def ledger_snapshot(cpu_key: str) -> CycleLedger:
    """Deterministic instrumented reference run for one CPU.

    Exercises every ledger layer — syscall entry/handler/exit, scheduler,
    JS engine, VM exits — under the CPU's Linux-default config with fixed
    iteration counts and seed 0.  No noise sampling is involved, so the
    resulting entries are exact integers, reproducible anywhere the code
    is identical; :meth:`~repro.obs.ledger.CycleLedger.verify` enforces
    the sum-to-TSC invariant before the snapshot is trusted.
    """
    from ..cpu.machine import Machine
    from ..hypervisor.vm import Hypervisor
    from ..jsengine import octane
    from ..mitigations.policy import linux_default
    from ..workloads import lebench

    cpu = get_cpu(cpu_key)
    config = linux_default(cpu)
    ledger = CycleLedger()
    with use_observers(ledger):
        machine = Machine(cpu, seed=0)
        lebench.run_suite(machine, config,
                          iterations=LEDGER_ITERATIONS, warmup=LEDGER_WARMUP)
        js_machine = Machine(cpu, seed=0)
        octane.run_suite(js_machine, config,
                         iterations=LEDGER_ITERATIONS, warmup=LEDGER_WARMUP)
        hv_machine = Machine(cpu, seed=0)
        hypervisor = Hypervisor(hv_machine, host_config=config)
        guest = hypervisor.create_guest()
        for i in range(LEDGER_ITERATIONS):
            guest.hypercall(2000, taints_l1=(i % 2 == 0))
    ledger.verify()
    return ledger


def leakage_snapshot(policy: str = "default", seed: int = 0) -> Dict[str, Any]:
    """The taint-oracle leakage surface for the bench payload.

    Runs the :mod:`repro.core.probe` grid with the leakage tracer as the
    oracle over every CPU model under ``policy`` (default: each part's
    Linux-default Spectre-v2 strategy).  Deterministic -- the probe is a
    fixed instruction sequence, no noise sampling -- so the resulting
    blocked/leaked matrix is exact and diffable across runs.  Raw events
    are dropped from the payload (``leakage events`` and its Perfetto
    export carry those); the matrix, merged state, and summary stay.
    """
    from ..core.probe import leakage_report
    from ..cpu.model import all_cpus

    report = leakage_report(all_cpus(), policy=policy, seed=seed)
    report.pop("events", None)
    return report


def collect(
    cpus: Optional[Sequence[str]] = None,
    settings: Optional[Any] = None,
    drivers: Optional[Sequence[str]] = None,
    executor: Optional[Any] = None,
    command: str = "bench",
    report: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run the pinned grid and assemble a bench payload.

    ``report``, when given, is called with each driver's name right after
    that driver runs (the executor resets its stats per driver, so this
    is the only point where per-driver cache/jobs numbers are visible).

    The payload also carries a ``telemetry`` block — per-phase host
    wall-clock, whole-campaign executor counters, the block-engine
    counter delta for this collection, and cells/sec — which the run
    history dashboard plots as time series so the simulator's *own*
    performance is tracked longitudinally next to the study values.
    """
    from ..core import study
    from ..core.executor import ATTRIBUTION, RunStats
    from ..cpu import engine as blockengine
    from ..cpu import replicas as replicabatch

    started = time.perf_counter()
    cpu_keys = list(cpus or DEFAULT_BENCH_CPUS)
    settings = settings or study.Settings()
    driver_names = list(drivers or DEFAULT_BENCH_DRIVERS)
    for driver in driver_names:
        if driver not in BENCH_DRIVERS:
            raise BaselineError(f"unknown bench driver {driver!r} (known: "
                                f"{', '.join(BENCH_DRIVERS)})")
    models = [get_cpu(key) for key in cpu_keys]

    engine_before = blockengine.STATS.as_dict()
    replicas_before = replicabatch.STATS.as_dict()
    phases: Dict[str, float] = {}
    executor_totals = RunStats()

    values: Dict[str, Dict[str, float]] = {}
    for driver in driver_names:
        phase_started = time.perf_counter()
        to_values = (_attribution_values
                     if study.DRIVERS[driver].kind == ATTRIBUTION
                     else _paired_values)
        for result in study.sweep(driver, models, settings, executor):
            values.update(to_values(driver, result))
        phases[driver] = time.perf_counter() - phase_started
        if executor is not None:
            executor_totals.absorb(executor.stats)
        if report is not None:
            report(driver)

    ledger_started = time.perf_counter()
    ledgers: Dict[str, Any] = {}
    sim_cycles = 0
    for key in cpu_keys:
        ledger = ledger_snapshot(key)
        sim_cycles += ledger.total()
        ledgers[key] = {"entries": ledger.paths(), "total": ledger.total()}
    phases["ledger"] = time.perf_counter() - ledger_started

    # Leakage surface: the taint-oracle probe grid over *all* CPU models
    # under the default Linux policy (the dashboard's 8xN panel), not just
    # the pinned bench CPUs -- the probe grid is deterministic and cheap.
    leakage_started = time.perf_counter()
    leakage = leakage_snapshot(seed=settings.seed)
    phases["leakage"] = time.perf_counter() - leakage_started

    wall = time.perf_counter() - started
    engine_after = blockengine.STATS.as_dict()
    engine_delta: Dict[str, float] = {
        name: engine_after[name] - engine_before.get(name, 0)
        for name in engine_after
    }
    eligible = engine_delta["block_hits"] + engine_delta["interp_fallbacks"]
    engine_delta["hit_rate"] = (engine_delta["block_hits"] / eligible
                                if eligible else 0.0)
    replicas_after = replicabatch.STATS.as_dict()
    replicas_delta: Dict[str, float] = {
        name: replicas_after[name] - replicas_before.get(name, 0)
        for name in replicas_after
    }
    batch_eligible = (replicas_delta["batched"]
                      + replicas_delta["scalar_fallbacks"])
    replicas_delta["hit_rate"] = (replicas_delta["batched"] / batch_eligible
                                  if batch_eligible else 1.0)
    telemetry: Dict[str, Any] = {
        "phases": phases,
        "engine": engine_delta,
        "replicas": replicas_delta,
        "replicas_per_s": (replicas_delta["replicas"] / wall
                           if wall > 0 else 0.0),
        "wall_s": wall,
    }
    if executor is not None:
        telemetry["executor"] = executor_totals.as_dict()
        telemetry["cache_hit_rate"] = executor_totals.cache_hit_rate()
        telemetry["cells_per_s"] = (
            executor_totals.total / wall if wall > 0 else 0.0)

    manifest = build_manifest(
        command=command,
        seed=settings.seed,
        cpus=cpu_keys,
        settings=settings,
        wall_time_s=wall,
        sim_cycles=sim_cycles,
    )
    return {
        "schema": SCHEMA_VERSION,
        "kind": BENCH_KIND,
        "cpus": cpu_keys,
        "drivers": driver_names,
        "settings": dict(dataclasses.asdict(settings)),
        "tolerance": {
            "sigma_multiplier": DEFAULT_SIGMA_MULTIPLIER,
            "min_percent_points": DEFAULT_MIN_PERCENT_POINTS,
            "ledger_rel_tol": DEFAULT_LEDGER_REL_TOL,
        },
        "values": values,
        "ledger": ledgers,
        "leakage": leakage,
        "telemetry": telemetry,
        "provenance": manifest.to_dict(),
    }


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #

def next_bench_path(directory: str) -> str:
    """The next free ``BENCH_<n>.json`` in ``directory`` (starting at 1)."""
    highest = 0
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    for name in names:
        match = _BENCH_NAME.match(name)
        if match:
            highest = max(highest, int(match.group(1)))
    return os.path.join(directory, f"BENCH_{highest + 1}.json")


def write_bench(payload: Dict[str, Any], path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_bench(path: str) -> Dict[str, Any]:
    try:
        with open(path) as f:
            payload = json.load(f)
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path!r}: {exc}") from exc
    except ValueError as exc:
        raise BaselineError(f"baseline {path!r} is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != BENCH_KIND:
        raise BaselineError(f"{path!r} is not a spectresim bench payload")
    if payload.get("schema") != SCHEMA_VERSION:
        raise BaselineError(
            f"baseline {path!r} has schema v{payload.get('schema')}, "
            f"this build reads v{SCHEMA_VERSION}")
    _check_shape(payload, path)
    return payload


def _malformed(path: str, field: str, want: str) -> BaselineError:
    return BaselineError(f"baseline {path!r}: {field} must be {want}")


def _number(value: Any, integer: bool = False) -> bool:
    """Whether ``value`` is a finite JSON number (an integer if asked)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) if integer else math.isfinite(value)


_TEXT = (lambda value: value is None or isinstance(value, str),
         "null or a string")
_REAL = (lambda value: value is None or _number(value),
         "null or a finite number")
_FLAG = (lambda value: isinstance(value, bool), "a boolean")

#: Field -> (check, what it must be), for the provenance fields and the
#: leakage cell fields that the diff and the history dashboard read.
_PROVENANCE_FIELDS = {
    "code_fingerprint": _TEXT, "created_at": _TEXT, "command": _TEXT,
    "version": _TEXT, "wall_time_s": _REAL, "sim_cycles": _REAL,
    "seed": (lambda value: value is None or _number(value, integer=True),
             "null or an integer"),
}
_CELL_FIELDS = {
    "leaked": _FLAG, "speculated": _FLAG, "mispredicted": _FLAG,
    "events": (lambda value: _number(value, integer=True), "an integer"),
    "blocked_by": (lambda value: isinstance(value, list) and all(
        isinstance(item, str) for item in value), "a list of strings"),
    "primitive": (lambda value: isinstance(value, str), "a string"),
}


def _check_fields(path: str, where: str, record: Dict[str, Any],
                  fields: Dict[str, Tuple[Any, str]]) -> None:
    for field, (check, want) in fields.items():
        if field in record and not check(record[field]):
            raise _malformed(path, f"{where}.{field}", want)


def _check_shape(payload: Dict[str, Any], path: str) -> None:
    """Reject the payload unless its provenance, values, ledger and
    leakage blocks have the shape that
    :func:`~repro.obs.history.diff_payloads` and the history dashboard
    read."""
    provenance = payload.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise _malformed(path, "provenance", "null or an object")
    _check_fields(path, "provenance", provenance or {}, _PROVENANCE_FIELDS)
    values = payload.get("values", {})
    if not isinstance(values, dict):
        raise _malformed(path, "values", "an object")
    for key, record in values.items():
        if not (isinstance(record, dict) and _number(record.get("value"))
                and _number(record.get("uncertainty", 0.0))):
            raise _malformed(path, f"values[{key!r}]",
                             "an object with a finite numeric value "
                             "and uncertainty")
    ledger = payload.get("ledger", {})
    if not isinstance(ledger, dict):
        raise _malformed(path, "ledger", "an object")
    for cpu, roll in ledger.items():
        entries = roll.get("entries", {}) if isinstance(roll, dict) else None
        if not isinstance(entries, dict):
            raise _malformed(path, f"ledger[{cpu!r}]",
                             "an object with an entries object")
        for entry, cycles in entries.items():
            try:
                split_path(entry)
            except LedgerInvariantError:
                raise _malformed(path, f"ledger[{cpu!r}] path {entry!r}",
                                 "layer/mitigation/primitive") from None
            if not _number(cycles, integer=True):
                raise _malformed(path, f"ledger[{cpu!r}][{entry!r}]",
                                 "an integer")
    leakage = payload.get("leakage")
    if leakage is None:
        return
    matrix = leakage.get("matrix") if isinstance(leakage, dict) else None
    if not isinstance(matrix, dict):
        raise _malformed(path, "leakage", "null or an object with a matrix")
    policy = leakage.get("policy")
    if policy is not None and not isinstance(policy, str):
        raise _malformed(path, "leakage.policy", "null or a string")
    for cpu, row in matrix.items():
        if row is not None and not (isinstance(row, dict) and all(
                isinstance(cell, dict) for cell in row.values())):
            raise _malformed(path, f"leakage.matrix[{cpu!r}]",
                             "null or an object of boundary objects")
        for boundary, cell in (row or {}).items():
            _check_fields(path, f"leakage.matrix[{cpu!r}][{boundary!r}]",
                          cell, _CELL_FIELDS)


# --------------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------------- #

def check_against(baseline_path: str,
                  executor: Optional[Any] = None,
                  command: str = "check",
                  report: Optional[Any] = None,
                  on_payload: Optional[Any] = None) -> Tuple[RunDiff, str]:
    """Re-run the baseline's own grid and diff: (diff, report).

    The fresh run reuses the cpus, settings, and drivers recorded in the
    baseline, so the comparison never mixes grids.  ``on_payload``, when
    given, receives the freshly collected payload *before* the diff is
    evaluated — the history auto-record hook — so a failing check still
    leaves its run in the longitudinal record.
    """
    from ..core import study

    payload = load_bench(baseline_path)
    for key in ("cpus", "settings"):
        if key not in payload:
            raise BaselineError(
                f"baseline {baseline_path!r} has no {key!r} key to re-run")
    # Missing fields keep their defaults: BENCH_1/2 predate ``replicas``.
    defaults = {field.name: field.default
                for field in dataclasses.fields(study.Settings)}
    if not isinstance(payload["settings"], dict):
        raise _malformed(baseline_path, "settings", "an object")
    for name, value in payload["settings"].items():
        if name not in defaults:
            raise _malformed(baseline_path, f"settings key {name!r}",
                             f"one of {', '.join(defaults)}")
        integer = isinstance(defaults[name], int)
        if not _number(value, integer):
            raise _malformed(baseline_path, f"settings[{name!r}]",
                             "an integer" if integer else "a finite number")
    cpus = payload["cpus"]
    if not (isinstance(cpus, list)
            and all(isinstance(key, str) for key in cpus)):
        raise _malformed(baseline_path, "cpus", "a list of CPU keys")
    for key in cpus:
        try:
            get_cpu(key)
        except UnknownCPUError as exc:
            raise BaselineError(
                f"baseline {baseline_path!r}: {exc.args[0]}") from None
    settings = study.Settings(**payload["settings"])
    current = collect(
        cpus=payload["cpus"],
        settings=settings,
        drivers=payload.get("drivers"),
        executor=executor,
        command=command,
        report=report,
    )
    if on_payload is not None:
        on_payload(current)
    diff = diff_payloads(payload, current)
    return diff, render_diff(diff, label_a=baseline_path, label_b="this run")
