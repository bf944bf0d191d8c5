"""Parallel study execution engine with a persistent result cache.

Every figure/table driver in :mod:`~repro.core.study` sweeps a grid of
independent (cpu, config, workload, settings) **cells** — exactly the
shape the paper's own measurement campaign has (eight machines, many
boot-parameter configurations, several suites, all measured separately).
This module turns that grid into explicit work items and executes them:

* :class:`CellSpec` names one cell as a hashable, picklable spec;
* per-cell seeds derive from the spec path via
  :func:`~repro.core.stats.derive_seed`, so every cell consumes its own
  noise stream and parallel results are **bit-identical** to serial ones
  regardless of scheduling;
* :class:`StudyExecutor` fans cells out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs > 1``) or runs
  them inline (``jobs == 1`` — the serial path is the same code);
* completed cells are memoized in a content-addressed on-disk cache
  keyed by the spec plus the package version *and* a source fingerprint
  (:func:`~repro.obs.provenance.code_fingerprint`), so re-runs skip
  finished work and stale caches can never survive a code change, and
  each cell is written as it completes, so rerunning an interrupted
  ``spectresim figure 2`` simulates only the missing cells;
* every observer in the caller's scope (span tracer, ledger, ...) has a
  fresh twin in each worker whose ``state()`` merges back into it, keeping
  ``--trace`` and ``profile`` output whole across process boundaries.

See ``docs/parallelism.md`` for the cache key anatomy and the
determinism guarantees.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cpu import engine as blockengine
from ..cpu import replicas as replicabatch
from ..errors import ExecutorError
from ..obs.progress import ProgressLine
from ..obs import ledger as obs_ledger
from ..obs import observers as obs_observers
from ..obs.provenance import code_fingerprint
from .attribution import AttributionResult, Contribution
from .stats import Measurement, derive_seed

#: Result kinds a driver can produce (see ``study.DRIVERS``).
ATTRIBUTION = "attribution"
PAIRED = "paired"


def default_cache_dir() -> str:
    """``$SPECTRESIM_CACHE_DIR`` or ``~/.cache/spectresim``."""
    return (os.environ.get("SPECTRESIM_CACHE_DIR")
            or os.path.join(os.path.expanduser("~"), ".cache", "spectresim"))


def cache_version() -> str:
    """The code/config version component of every cache key."""
    from .. import __version__
    return f"{__version__}+{code_fingerprint()}"


# --------------------------------------------------------------------------- #
# Cell specs
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class CellSpec:
    """One independent cell of a study sweep grid.

    Hashable and picklable: ``settings`` is the frozen
    :class:`~repro.core.study.Settings` dataclass.  The spec is the
    *complete* input of the cell — two equal specs must produce
    bit-identical results, which is what makes the on-disk cache sound.
    """

    driver: str                    # e.g. "figure2"
    cpu: str                       # CPU model key
    workload: str                  # suite or workload name
    settings: Any                  # core.study.Settings (frozen dataclass)

    def key(self) -> str:
        """Canonical human-readable identity of the cell."""
        settings = json.dumps(dataclasses.asdict(self.settings),
                              sort_keys=True)
        return f"{self.driver}/{self.cpu}/{self.workload}?settings={settings}"

    def digest(self) -> str:
        """Content address: spec key + code/config version."""
        material = f"{self.key()}@{cache_version()}"
        return hashlib.sha256(material.encode()).hexdigest()

    def seed(self) -> int:
        """The cell's private noise seed (stable across processes)."""
        return derive_seed(self.settings.seed, self.driver, self.cpu,
                           self.workload)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "driver": self.driver,
            "cpu": self.cpu,
            "workload": self.workload,
            "settings": dataclasses.asdict(self.settings),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellSpec":
        from .study import Settings
        return cls(
            driver=data["driver"],
            cpu=data["cpu"],
            workload=data["workload"],
            settings=Settings(**data["settings"]),
        )


# --------------------------------------------------------------------------- #
# Result codecs (JSON round-trips are bit-exact for floats)
# --------------------------------------------------------------------------- #

def _measurement_to_dict(m: Measurement) -> Dict[str, Any]:
    return {"mean": m.mean, "ci_half_width": m.ci_half_width,
            "samples": m.samples}


def _measurement_from_dict(data: Dict[str, Any]) -> Measurement:
    return Measurement(mean=data["mean"],
                       ci_half_width=data["ci_half_width"],
                       samples=data["samples"])


def encode_result(kind: str, result: Any) -> Dict[str, Any]:
    """A driver result as plain JSON types, losslessly."""
    if kind == ATTRIBUTION:
        return {
            "cpu": result.cpu,
            "workload": result.workload,
            "metric": result.metric,
            "baseline": _measurement_to_dict(result.baseline),
            "default": _measurement_to_dict(result.default),
            "other_percent": result.other_percent,
            "contributions": [
                {
                    "knob": c.knob,
                    "boot_param": c.boot_param,
                    "percent": c.percent,
                    "with_knob": _measurement_to_dict(c.with_knob),
                    "without_knob": _measurement_to_dict(c.without_knob),
                }
                for c in result.contributions
            ],
        }
    if kind == PAIRED:
        return {
            "cpu": result.cpu,
            "workload": result.workload,
            "baseline": _measurement_to_dict(result.baseline),
            "treated": _measurement_to_dict(result.treated),
            "overhead_percent": result.overhead_percent,
        }
    raise ValueError(f"unknown result kind {kind!r}")


def decode_result(kind: str, data: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_result`."""
    if kind == ATTRIBUTION:
        return AttributionResult(
            cpu=data["cpu"],
            workload=data["workload"],
            metric=data["metric"],
            baseline=_measurement_from_dict(data["baseline"]),
            default=_measurement_from_dict(data["default"]),
            other_percent=data["other_percent"],
            contributions=[
                Contribution(
                    knob=c["knob"],
                    boot_param=c["boot_param"],
                    percent=c["percent"],
                    with_knob=_measurement_from_dict(c["with_knob"]),
                    without_knob=_measurement_from_dict(c["without_knob"]),
                )
                for c in data["contributions"]
            ],
        )
    if kind == PAIRED:
        from .study import PairedOverhead
        return PairedOverhead(
            cpu=data["cpu"],
            workload=data["workload"],
            baseline=_measurement_from_dict(data["baseline"]),
            treated=_measurement_from_dict(data["treated"]),
            overhead_percent=data["overhead_percent"],
        )
    raise ValueError(f"unknown result kind {kind!r}")


# --------------------------------------------------------------------------- #
# On-disk cache
# --------------------------------------------------------------------------- #

def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ResultCache:
    """Content-addressed memoization of completed cells.

    One JSON blob per cell under ``<dir>/cells/``, addressed by
    :meth:`CellSpec.digest` — which bakes in the package version and
    source fingerprint, so a cache can be long-lived: entries written by
    different code are simply never found.  Each blob also stores the
    full spec key and is verified on read against hash collisions and
    hand-edited files.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    #: Lookup outcomes (cache effectiveness telemetry).
    HIT = "hit"
    MISS = "miss"
    STALE = "stale"

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, "cells", digest[:2], digest + ".json")

    def lookup(self, spec: CellSpec, kind: str) -> Tuple[Optional[Any], str]:
        """(result, outcome): outcome distinguishes a plain miss (no entry
        on disk) from a *stale* entry — a blob that exists at the cell's
        address but fails key/kind verification or does not decode (hash
        collision, result kind change, or a hand-edited file)."""
        try:
            with open(self._path(spec.digest())) as f:
                record = json.load(f)
            if record["key"] == spec.key() and record["kind"] == kind:
                return decode_result(kind, record["result"]), self.HIT
        except OSError:
            return None, self.MISS
        except (LookupError, TypeError, ValueError):
            pass
        return None, self.STALE

    def put(self, spec: CellSpec, kind: str, result: Any) -> None:
        _atomic_write_json(self._path(spec.digest()), {
            "key": spec.key(),
            "kind": kind,
            "version": cache_version(),
            "result": encode_result(kind, result),
        })


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #

@dataclass
class RunStats:
    """What one :meth:`StudyExecutor.run` actually did."""

    total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale: int = 0
    executed: int = 0
    jobs: int = 1
    wall_s: float = 0.0

    def summary(self) -> str:
        return (f"{self.total} cells: {self.cache_hits} cache hits, "
                f"{self.executed} executed "
                f"(jobs={self.jobs}, {self.cache_misses} misses, "
                f"{self.cache_stale} stale, {self.wall_s:.2f}s)")

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def absorb(self, other: "RunStats") -> None:
        """Fold another run's counters in (multi-driver accumulation).

        :meth:`StudyExecutor.run` resets ``stats`` per call, so callers
        sweeping several drivers through one executor (``bench``) absorb
        after each run to get whole-campaign totals.
        """
        self.total += other.total
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_stale += other.cache_stale
        self.executed += other.executed
        self.jobs = max(self.jobs, other.jobs)
        self.wall_s += other.wall_s

    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit."""
        looked = self.cache_hits + self.cache_misses + self.cache_stale
        return self.cache_hits / looked if looked else 0.0


def _worker_run_cell(spec_dict: Dict[str, Any], kinds: Sequence[type],
                     engine_mode: Optional[str] = None) -> Dict[str, Any]:
    """Process-pool entry point: run one cell, return result + telemetry.

    Top-level (picklable) and import-light: the heavy imports happen in
    the worker.  ``kinds`` are the types of the parent's in-scope
    observers: the worker runs the cell under a fresh instance of each
    and ships every ``state()`` home for the parent's ``merge_state()``.
    A worker :class:`~repro.obs.ledger.CycleLedger` first verifies the
    sum-to-TSC invariant for the cell.

    ``engine_mode`` propagates the parent's ``--engine`` selection so a
    pool worker simulates with the same execution engine; the worker's
    block-engine counters for this cell are shipped home and merged into
    the parent's :data:`~repro.cpu.engine.STATS`.
    """
    from . import study
    if engine_mode is not None:
        blockengine.set_default_engine(engine_mode)
    blockengine.STATS.reset()  # per-cell delta (workers run many cells)
    replicabatch.STATS.reset()
    spec = CellSpec.from_dict(spec_dict)
    driver = study.DRIVERS[spec.driver]
    observers = [observer_kind() for observer_kind in kinds]
    with obs_observers.use_observers(*observers):
        result = driver.run_cell(spec)
    for observer in observers:
        if isinstance(observer, obs_ledger.CycleLedger):
            observer.verify()  # per-cell invariant, enforced worker-side
    return {"result": encode_result(driver.kind, result),
            "observers": [observer.state() for observer in observers],
            "engine": blockengine.STATS.as_dict(),
            "replicas": replicabatch.STATS.as_dict()}


class StudyExecutor:
    """Executes study cells: in-process, across a process pool, or not at
    all (cache hits).

    ``jobs=1`` (the default, and what the plain :func:`~repro.core.study`
    drivers use) runs cells inline under the caller's tracer — the
    *serial path* — while ``jobs>1`` fans out over processes.  Both paths
    run the identical per-cell code with the identical per-cell seeds, so
    the assembled results are bit-identical; only wall-clock differs.

    ``cache_dir=None`` (the library default) disables all persistence;
    the CLI turns it on by default.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.stats = RunStats(jobs=jobs)

    # -- execution --------------------------------------------------------- #

    def run(self, specs: Sequence[CellSpec]) -> List[Any]:
        """Execute ``specs``, returning results in enumeration order.

        Completion order never leaks into the output: results are
        assembled by spec index, which is what keeps parallel output
        byte-identical to serial.
        """
        from . import study
        started = time.perf_counter()
        self.stats = RunStats(total=len(specs), jobs=self.jobs)

        cache = ResultCache(self.cache_dir) if self.cache_dir else None

        # TTY-gated live line on stderr; a no-op in CI and pipes, so the
        # stderr the parallel-smoke gates grep stays byte-identical.
        meter = ProgressLine(len(specs), label="cells")
        results: Dict[int, Any] = {}
        pending: List[Tuple[int, CellSpec]] = []
        for index, spec in enumerate(specs):
            if cache is not None:
                kind = study.DRIVERS[spec.driver].kind
                hit, outcome = cache.lookup(spec, kind)
                if outcome == ResultCache.HIT:
                    results[index] = hit
                    self.stats.cache_hits += 1
                    continue
                if outcome == ResultCache.STALE:
                    self.stats.cache_stale += 1
                else:
                    self.stats.cache_misses += 1
            pending.append((index, spec))
        meter.update(len(results))  # cache hits count as done

        def record_completion(index: int, spec: CellSpec, result: Any) -> None:
            results[index] = result
            self.stats.executed += 1
            if cache is not None:
                cache.put(spec, study.DRIVERS[spec.driver].kind, result)
            meter.update(len(results))

        try:
            if self.jobs == 1 or len(pending) <= 1:
                for index, spec in pending:
                    record_completion(index, spec, self._run_inline(spec))
            else:
                self._run_pool(pending, record_completion)
        finally:
            meter.close()

        self.stats.wall_s = time.perf_counter() - started
        return [results[index] for index in range(len(specs))]

    def _run_inline(self, spec: CellSpec) -> Any:
        """The serial path: the cell runs under the caller's tracer."""
        from . import study
        try:
            return study.DRIVERS[spec.driver].run_cell(spec)
        except Exception as exc:
            raise ExecutorError(f"cell {spec.key()} failed: {exc}") from exc

    def _run_pool(self, pending: Sequence[Tuple[int, CellSpec]],
                  record_completion: Any) -> None:
        observers = obs_observers.current_observers()
        kinds = [type(observer) for observer in observers]
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_worker_run_cell, spec.to_dict(), kinds,
                            blockengine.default_engine()):
                    (index, spec)
                for index, spec in pending
            }
            for future in as_completed(futures):
                index, spec = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:
                    raise ExecutorError(
                        f"cell {spec.key()} failed: {exc}") from exc
                from . import study
                kind = study.DRIVERS[spec.driver].kind
                for observer, state in zip(observers, payload["observers"]):
                    observer.merge_state(state)
                if payload.get("engine") is not None:
                    blockengine.STATS.merge(payload["engine"])
                if payload.get("replicas") is not None:
                    replicabatch.STATS.merge(payload["replicas"])
                record_completion(index, spec,
                                  decode_result(kind, payload["result"]))
