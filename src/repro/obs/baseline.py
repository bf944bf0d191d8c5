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
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import BaselineError, UnknownCPUError
from .history import (
    DEFAULT_LEDGER_REL_TOL,
    DEFAULT_MIN_PERCENT_POINTS,
    DEFAULT_SIGMA_MULTIPLIER,
    RunDiff,
    diff_payloads,
    render_diff,
)
from .ledger import PATH_SEP, CycleLedger
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


def leakage_snapshot(policy: str = "default", seed: int = 0,
                     cpus: Optional[Sequence[Any]] = None) -> Dict[str, Any]:
    """The taint-oracle leakage surface for the bench payload.

    Runs the :mod:`repro.core.probe` grid over ``cpus`` (CPU models;
    default: every model) under ``policy`` (default: each part's
    Linux-default Spectre-v2 strategy).  Deterministic -- the probe is a
    fixed instruction sequence, no noise sampling -- so the resulting
    blocked/leaked matrix is exact and diffable across runs.  It carries
    no raw events (``leakage events`` and its Perfetto export do); the
    matrix, merged state, and summary stay.
    """
    from ..core.probe import leakage_report
    from ..cpu.model import all_cpus

    report = leakage_report(cpus or all_cpus(), policy=policy, seed=seed,
                            max_events=0)
    del report["events"]
    return report


def counters_since(stats: Any, before: Mapping[str, int]) -> Dict[str, float]:
    """What a process-wide counter set (``engine.STATS``,
    ``replicas.STATS``) counted since ``before``, its earlier
    ``as_dict()``: the moved counts plus their ``hit_rate``."""
    moved = type(stats)()
    moved.merge({name: count - before.get(name, 0)
                 for name, count in stats.as_dict().items()})
    delta: Dict[str, float] = dict(moved.as_dict())
    delta["hit_rate"] = moved.hit_rate()
    return delta


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
    engine_delta = counters_since(blockengine.STATS, engine_before)
    replicas_delta = counters_since(replicabatch.STATS, replicas_before)
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


# --------------------------------------------------------------------------- #
# The payload shape: declared once, walked wherever a payload is read back
# --------------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class Shape:
    """What one payload value must be: ``want``, checked by ``test``; an
    object's ``fields`` by name (the ``required`` ones must be present),
    and a map's ``keys`` and ``each`` value or a list's items by shape."""

    want: str
    test: Callable[[Any], bool]
    fields: Mapping[str, "Shape"] = dataclasses.field(default_factory=dict)
    required: Tuple[str, ...] = ()
    keys: Optional["Shape"] = None
    each: Optional["Shape"] = None


def _object(fields: Optional[Mapping[str, Shape]] = None, **kwargs: Any) -> Shape:
    return Shape("an object", lambda value: isinstance(value, dict),
                 fields=fields or {}, **kwargs)


def _list(each: Shape, want: str) -> Shape:
    return Shape(want, lambda value: isinstance(value, list), each=each)


def _null(shape: Shape) -> Shape:
    return dataclasses.replace(
        shape, want=f"null or {shape.want}",
        test=lambda value: value is None or shape.test(value))


TEXT = Shape("a string", lambda value: isinstance(value, str))
FLAG = Shape("a boolean", lambda value: isinstance(value, bool))
# JSON numbers load as exactly int or float; a boolean is neither.
INTEGER = Shape("an integer", lambda value: type(value) is int)
REAL = Shape("a finite number",
             lambda value: type(value) in (int, float) and math.isfinite(value))
#: An unknown key raises ``UnknownCPUError``, whose text the error keeps.
CPU_KEY = Shape("a CPU key",
                lambda key: isinstance(key, str) and bool(get_cpu(key)))

#: Every payload read back: ``bench``/``export`` files, and recorded runs
#: (whose ``profile`` and ``fuzz`` rows carry no grid).  These are the
#: fields that :func:`~repro.obs.history.diff_payloads`, ``check`` and
#: the history dashboard read; other fields pass unread.
PAYLOAD = _object({
    "cpus": _list(TEXT, "a list of CPU keys"),
    "drivers": _null(_list(TEXT, "a list of driver names")),
    "settings": _object(each=REAL),
    "tolerance": _object({"sigma_multiplier": REAL,
                          "min_percent_points": REAL,
                          "ledger_rel_tol": REAL}),
    "values": _object(each=_object({"value": REAL, "uncertainty": REAL},
                                   required=("value",))),
    "ledger": _object(each=_object({
        "entries": _object(each=INTEGER, keys=Shape(
            "layer/mitigation/primitive",
            lambda key: key.count(PATH_SEP) == 2)),
        "total": INTEGER})),
    "leakage": _null(_object({
        "policy": _null(TEXT),
        "matrix": _object(each=_null(_object(each=_object({
            "leaked": FLAG, "speculated": FLAG, "mispredicted": FLAG,
            "events": INTEGER, "primitive": TEXT,
            "blocked_by": _list(TEXT, "a list of strings")})))),
    }, required=("matrix",))),
    "telemetry": _null(_object()),
    "provenance": _null(_object({
        "code_fingerprint": _null(TEXT), "created_at": _null(TEXT),
        "command": _null(TEXT), "version": _null(TEXT),
        "wall_time_s": _null(REAL), "sim_cycles": _null(REAL),
        "seed": _null(INTEGER)})),
})


class _Mismatch(Exception):
    """``(field, want)``: the first value that does not fit its shape."""


def _walk(value: Any, shape: Shape, where: str) -> None:
    if not shape.test(value):
        raise _Mismatch(where, shape.want)
    if isinstance(value, list):
        for index, item in enumerate(value):
            _walk(item, shape.each, f"{where}[{index}]")
    elif isinstance(value, dict):
        dotted = f"{where}." if where else ""
        for name in shape.required:
            if name not in value:
                raise _Mismatch(dotted + name,
                                f"present ({shape.fields[name].want})")
        for name, item in value.items():
            if shape.keys is not None and not shape.keys.test(name):
                raise _Mismatch(f"{where} key {name!r}", shape.keys.want)
            if name in shape.fields:
                _walk(item, shape.fields[name], dotted + name)
            elif shape.each is not None:
                _walk(item, shape.each, f"{where}[{name!r}]")


def check_shape(value: Any, shape: Shape, label: str,
                error: type = BaselineError) -> Any:
    """Return ``value`` if it fits ``shape``; otherwise raise ``error``
    with one ``<label>: <field> must be <want>`` line."""
    try:
        _walk(value, shape, "")
    except _Mismatch as exc:
        where, want = exc.args
        raise error(f"{label}: {where or 'the payload'} "
                    f"must be {want}") from None
    except UnknownCPUError as exc:
        raise error(f"{label}: {exc.args[0]}") from None
    return value


def load_bench(path: str, shape: Shape = PAYLOAD) -> Dict[str, Any]:
    """Read a bench payload file and check it against ``shape``."""
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
    return check_shape(payload, shape, f"baseline {path!r}")


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

    # The grid to re-run: catalog CPUs, and study.Settings fields (a
    # missing one keeps its default: BENCH_1/2 predate ``replicas``).
    settings = {field.name: INTEGER if isinstance(field.default, int) else REAL
                for field in dataclasses.fields(study.Settings)}
    payload = load_bench(baseline_path, dataclasses.replace(
        PAYLOAD, required=("cpus", "settings"), fields={
            **PAYLOAD.fields, "cpus": _list(CPU_KEY, "a list of CPU keys"),
            "settings": _object(settings, keys=Shape(
                f"one of {', '.join(settings)}", settings.__contains__))}))
    current = collect(
        cpus=payload["cpus"],
        settings=study.Settings(**payload["settings"]),
        drivers=payload.get("drivers"),
        executor=executor,
        command=command,
        report=report,
    )
    if on_payload is not None:
        on_payload(current)
    diff = diff_payloads(payload, current)
    return diff, render_diff(diff, label_a=baseline_path, label_b="this run")
