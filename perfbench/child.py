"""One cold benchmark process: import the CLI, run one workload, report.

Started by ``perfbench/run.py`` in a fresh interpreter for every sample::

    python3 perfbench/child.py <workload|setup> <seed> <trace 0|1> <tmpdir> <spawned>

``spawned`` is the parent's ``time.monotonic()`` just before it started
this process; ``CLOCK_MONOTONIC`` is system-wide on Linux, so set-up time
is measured from process start to the end of ``import repro.cli``.  A
:class:`hostclock.HostClock` probes the host's speed from before that
import until the report is printed, and every time is also reported
normalized to the reference host speed (``*_norm_s``).

The workload calls the same library functions the CLI commands call
(``baseline.collect`` for ``bench``, ``fuzz_campaign`` for ``fuzz``,
``study.figure2`` for ``figure 2``), with ``--jobs 1``, a private cache dir
and no history recording, so the seed can be fed through
``Settings.seed`` / ``FuzzConfig.seed`` without a CLI change.

Prints one JSON object on stdout: timings, the operation counts the
correctness checks produced, a digest of the simulated outputs,
deterministic simulated counts and, when traced, per-layer metrics.
"""

from __future__ import annotations

import sys
import time

import hostclock  # perfbench/ is sys.path[0] for this script

CLOCK = hostclock.HostClock()
CLOCK.start()
SPAWNED = float(sys.argv[5])
import repro.cli  # noqa: E402  (the timed set-up: the CLI's import graph)
IMPORTED = time.monotonic()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import weakref  # noqa: E402
from typing import Any, Callable, Dict, List, Tuple  # noqa: E402

from repro.cpu import counters as ctr  # noqa: E402
from repro.cpu import engine as blockengine  # noqa: E402
from repro.cpu import replicas as replicabatch  # noqa: E402
from repro.cpu.machine import Machine  # noqa: E402
from repro.errors import LedgerInvariantError  # noqa: E402
from repro.obs.ledger import CycleLedger  # noqa: E402

#: The study drivers the paper-grid workload snapshots (``bench --drivers``).
GRID_DRIVERS = ("figure2", "figure3", "figure5", "vm_lebench",
                "parsec_default")
FUZZ_PROGRAMS = 25
#: Campaign seeds whose 25-program campaigns raise no oracle violation; the
#: benchmark seed picks one (``CAMPAIGN_SEEDS[seed % 32]``).  On 16 of the
#: seeds 0..63 (2 6 7 8 13 22 26 30 35 42 46 48 53 59 62 63) one generated
#: program makes the block engine's TLB state diverge from the
#: interpreter's, and a workload must not fail operations by design.
CAMPAIGN_SEEDS = (0, 1, 3, 4, 5, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20,
                  21, 23, 24, 25, 27, 28, 29, 31, 32, 33, 34, 36, 37, 38, 39,
                  40)
REPLICAS = 8
#: Absolute tolerance (percentage points) on attribution stack sums.
STACK_TOLERANCE = 1e-9


class Ops:
    """Operations attempted and failed, with the first few failure notes.

    An operation is a study cell, a fuzz cell or a ledger verification;
    a failed check marks the operations it covers as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)


class MachineTotals:
    """Perf counters and TSC summed over every ``Machine`` built.

    ``Machine.__init__`` is wrapped to register a finalizer per machine; a
    machine's counters are folded in when it is collected, or at
    :meth:`close` for machines still alive.
    """

    def __init__(self) -> None:
        self.machines = 0
        self.tsc = 0
        self.events: Dict[str, int] = {}
        self._finalizers: List[weakref.finalize] = []
        self._original = Machine.__init__
        original = self._original
        totals = self

        def __init__(machine, *args, **kwargs):
            original(machine, *args, **kwargs)
            totals._finalizers.append(
                weakref.finalize(machine, totals._fold, machine.counters))

        Machine.__init__ = __init__

    def _fold(self, counters) -> None:
        self.machines += 1
        self.tsc += counters.tsc
        for name, value in counters.events.items():
            self.events[name] = self.events.get(name, 0) + value

    def close(self) -> None:
        for finalizer in self._finalizers:
            finalizer()
        self._finalizers.clear()
        Machine.__init__ = self._original

    def as_dict(self) -> Dict[str, Any]:
        return {"machines": self.machines, "tsc": self.tsc,
                "events": dict(sorted(self.events.items()))}


def _count_ledger_verifies(ops: Ops) -> Callable[[], None]:
    """Count every ``CycleLedger.verify()`` as one operation."""
    original = CycleLedger.verify

    def verify(ledger):
        try:
            total = original(ledger)
        except LedgerInvariantError as exc:
            ops.fail(1, f"ledger verify: {exc}")
            raise
        finally:
            ops.attempted += 1
        return total

    CycleLedger.verify = verify

    def restore() -> None:
        CycleLedger.verify = original
    return restore


def _stack_ok(total: float, parts: List[float]) -> bool:
    return abs(sum(parts) - total) <= STACK_TOLERANCE


def _fast_settings(seed: int, **changes: Any):
    from repro.core.study import Settings
    return dataclasses.replace(Settings.fast(), seed=seed, **changes)


def run_paper_grid(seed: int, tmpdir: str, ops: Ops) -> Tuple[int, Any]:
    """``spectresim bench --fast --jobs 1`` over all 8 CPUs and five
    drivers, from an empty cell cache, payload written to ``tmpdir``."""
    from repro.core.executor import StudyExecutor
    from repro.cpu import all_cpus
    from repro.obs import baseline
    from repro.workloads import parsec

    cpus = [cpu.key for cpu in all_cpus()]
    per_cpu = {"figure5": len(parsec.SUITE),
               "parsec_default": len(parsec.SUITE)}
    cells = sum(len(cpus) * per_cpu.get(driver, 1) for driver in GRID_DRIVERS)
    ops.attempted += cells
    executor = StudyExecutor(jobs=1, cache_dir=os.path.join(tmpdir, "cache"))
    try:
        payload = baseline.collect(cpus=cpus, settings=_fast_settings(seed),
                                   drivers=list(GRID_DRIVERS),
                                   executor=executor, command="bench")
    except Exception:
        ops.fail(cells, traceback.format_exc(limit=3))
        return cells, None
    baseline.write_bench(payload, os.path.join(tmpdir, "BENCH.json"))
    executed = payload["telemetry"]["executor"]["executed"]
    if executed != cells:
        ops.fail(cells, f"executed {executed} of {cells} cells: the cell "
                        f"cache was not empty")
    values = payload["values"]
    for key, entry in values.items():
        if not key.endswith(":total"):
            continue
        prefix = key[:-len("total")]
        parts = [value["value"] for name, value in values.items()
                 if name.startswith(prefix) and name != key]
        if not _stack_ok(entry["value"], parts):
            ops.fail(1, f"attribution stack {prefix} does not sum to its "
                        f"total")
    outputs = {"values": values, "ledger": payload["ledger"],
               "leakage": payload["leakage"]}
    return cells, outputs


def run_fuzz_campaign(seed: int, tmpdir: str, ops: Ops) -> Tuple[int, Any]:
    """``spectresim fuzz --programs 25 --jobs 1`` over 8 CPUs x 3 policies,
    summary written to a private ``--out``."""
    from repro import fuzz as fuzzmod
    from repro.cpu import get_cpu

    config = fuzzmod.FuzzConfig(
        seed=CAMPAIGN_SEEDS[seed % len(CAMPAIGN_SEEDS)],
        programs=FUZZ_PROGRAMS, jobs=1)
    cells = config.programs * sum(
        fuzzmod.cell_supported(get_cpu(key), policy)
        for key in config.resolved_cpu_keys() for policy in config.policies)
    ops.attempted += cells
    try:
        result = fuzzmod.fuzz_campaign(config)
    except Exception:
        ops.fail(cells, traceback.format_exc(limit=3))
        return cells, None
    out = os.path.join(tmpdir, "fuzz-out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "summary.json"), "w") as handle:
        json.dump({"seed": config.seed, "cells": result.cells,
                   "skipped": result.skipped,
                   "violations": [v.to_dict() for v in result.violations]},
                  handle, sort_keys=True)
    violating = {(v.program, v.cpu, v.policy) for v in result.violations}
    if violating:
        ops.fail(len(violating), result.violations[0].detail)
    return cells, {"verdicts": result.verdict_map()}


def run_replica_sweep(seed: int, tmpdir: str, ops: Ops) -> Tuple[int, Any]:
    """``spectresim figure 2 --fast --replicas 8 --jobs 1`` on all 8 CPUs."""
    from repro.core import reporting, study
    from repro.core.executor import ATTRIBUTION, StudyExecutor, encode_result
    from repro.cpu import all_cpus

    cpus = list(all_cpus())
    ops.attempted += len(cpus)
    executor = StudyExecutor(jobs=1, cache_dir=os.path.join(tmpdir, "cache"))
    try:
        results = study.figure2(cpus, _fast_settings(seed, replicas=REPLICAS),
                                executor=executor)
        reporting.render_figure2(results)
    except Exception:
        ops.fail(len(cpus), traceback.format_exc(limit=3))
        return len(cpus), None
    for result in results:
        parts = [c.percent for c in result.contributions]
        parts.append(result.other_percent)
        if not _stack_ok(result.total_overhead_percent, parts):
            ops.fail(1, f"attribution stack figure2/{result.cpu} does not "
                        f"sum to its total")
    return len(results), {"results": [encode_result(ATTRIBUTION, r)
                                      for r in results]}


WORKLOADS = {
    "paper-grid": run_paper_grid,
    "fuzz-campaign": run_fuzz_campaign,
    "replica-sweep": run_replica_sweep,
}


def _stats_delta(before: Dict[str, int], after: Dict[str, int]
                 ) -> Dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}


def _provenance() -> Dict[str, Any]:
    import platform

    import numpy
    from repro.obs.provenance import code_fingerprint
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "code_fingerprint": code_fingerprint(),
            "repro_file": repro.cli.__file__}


def _add_normalized(report: Dict[str, Any], started: Any, finished: Any
                    ) -> None:
    """Stop the host clock and add the normalized set-up, work and
    process-span times, and the seconds the probes took."""
    ended = time.monotonic()
    CLOCK.stop()
    report["setup_norm_s"] = CLOCK.normalized(SPAWNED, IMPORTED)
    report["span_s"] = ended - SPAWNED
    report["span_norm_s"] = CLOCK.normalized(SPAWNED, ended)
    report["probe_s"] = CLOCK.probe_seconds(SPAWNED, ended)
    report["probes"] = len(CLOCK.probes)
    if started is not None:
        report["work_norm_s"] = CLOCK.normalized(started, finished)


def main() -> None:
    workload, seed, traced, tmpdir = (sys.argv[1], int(sys.argv[2]),
                                      sys.argv[3] == "1", sys.argv[4])
    report: Dict[str, Any] = {"setup_s": IMPORTED - SPAWNED}
    if workload == "setup":
        report["provenance"] = _provenance()
        _add_normalized(report, None, None)
        print(json.dumps(report))
        return

    ops = Ops()
    tracer = None
    if traced:
        import layers  # perfbench/ is sys.path[0] for this script
        tracer = layers.LayerTracer()
        tracer.install()
    machines = MachineTotals()
    restore_verify = _count_ledger_verifies(ops)
    engine_before = blockengine.STATS.as_dict()
    replicas_before = replicabatch.STATS.as_dict()

    started = time.monotonic()
    cells, outputs = WORKLOADS[workload](seed, tmpdir, ops)
    finished = time.monotonic()

    restore_verify()
    machines.close()
    if tracer is not None:
        tracer.uninstall()
    totals = machines.as_dict()
    digest = None
    if outputs is not None:
        outputs["inst_retired"] = totals["events"].get(
            ctr.INSTRUCTIONS_RETIRED, 0)
        outputs["tsc"] = totals["tsc"]
        digest = hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    engine = _stats_delta(engine_before, blockengine.STATS.as_dict())
    replicas = _stats_delta(replicas_before, replicabatch.STATS.as_dict())
    report.update({
        "work_s": finished - started,
        "cells": cells,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "notes": ops.notes,
        "digest": digest,
        "counts": {"machines": totals, "engine": engine,
                   "replicas": replicas},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    _add_normalized(report, started, finished)
    if tracer is not None:
        report["layers"] = tracer.metrics(
            import_s=IMPORTED - SPAWNED, work_s=finished - started,
            totals=totals, engine=engine, replicas=replicas,
            violations=ops.failed if workload == "fuzz-campaign" else 0)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
