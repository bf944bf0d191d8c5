"""Run-history store and the unified diff/attribution engine.

The paper is a *longitudinal* study: its headline figures plot how
mitigation cost evolves across kernel versions and microarchitectures.
This module gives the simulator the same posture toward its own results.
A :class:`HistoryStore` is a SQLite database that every bench/check/
profile run appends one row-set to:

* ``runs`` — one row per recorded run: provenance manifest, code
  fingerprint, schema version, wall time, simulated cycles;
* ``cells`` — every study value the run produced (per cell, per
  mitigation knob) with its propagated measurement uncertainty;
* ``ledger`` — the deterministic per-CPU cycle-attribution rollups
  (``layer/mitigation/primitive -> cycles``);
* ``telemetry`` — the simulator's *own* performance: cells/sec, engine
  and cache hit rates, host wall-clock per phase;
* ``leakage`` — the taint oracle's probe grid (schema v2): one row per
  (cpu, primitive, boundary, policy) cell with its blocked/leaked
  verdict, event count and blocked-by attribution.

On top of the store sits the **diff engine** and its one renderer,
shared by both comparison commands: ``spectresim check``
(:mod:`repro.obs.baseline` delegates here) and ``spectresim history
diff``, which compares bench payload files or recorded runs.  Value
comparisons are noise-aware — a delta is significant only beyond
``sigma_multiplier × hypot(u_old, u_new) + floor`` — while ledger entries
are deterministic integers diffed exactly.  Each changed ledger cell is
explained as a per-mitigation **blame waterfall** whose steps sum
*exactly* to the cell's TSC delta (an invariant this module enforces,
inherited from the ledger's own sum-to-TSC construction).  Leakage
verdicts are compared exactly too: a cell whose ``leaked`` bit flipped
fails the diff.

Fingerprint hygiene: recording a payload whose ``code_fingerprint`` does
not match the running code raises :class:`~repro.errors.HistoryError`
unless ``allow_dirty`` is set, in which case the row is flagged and the
dashboard annotates it — a trend line must never silently mix results
from different code.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import HistoryError, LedgerInvariantError
from .ledger import split_path
from .provenance import code_fingerprint

__all__ = [
    "DEFAULT_LEDGER_REL_TOL",
    "DEFAULT_MIN_PERCENT_POINTS",
    "DEFAULT_SIGMA_MULTIPLIER",
    "CellDelta",
    "HistoryStore",
    "LeakageFlip",
    "LedgerDrift",
    "RunDiff",
    "RunInfo",
    "ValueDelta",
    "blame_paths",
    "cell_waterfall",
    "default_history_db",
    "diff_leakage",
    "diff_ledgers",
    "diff_payloads",
    "diff_values",
    "render_diff",
]

#: On-disk store schema version (bump on incompatible layout changes).
#: v2 adds the ``leakage`` table (per-run blocked/leaked probe cells);
#: v1 stores migrate in place on open — the new table is simply created
#: and existing rows are untouched.
SCHEMA_VERSION = 2

#: Noise tolerance defaults shared with the bench gate: a value regresses
#: when it worsens by more than multiplier × hypot(u_old, u_new) + floor.
DEFAULT_SIGMA_MULTIPLIER = 3.0
DEFAULT_MIN_PERCENT_POINTS = 0.25

#: Ledger entries are deterministic; any relative drift beyond this is
#: reported (0.0 = exact match required).
DEFAULT_LEDGER_REL_TOL = 0.0

#: JS knobs do not share a name with their ledger mitigation tag (the
#: taxonomy files them under spectre_v1 primitives, per the paper's
#: section 4.3); map knob -> ledger primitive for blame matching.
JS_KNOB_PRIMITIVES = {
    "js_index_masking": "index_mask",
    "js_object_guards": "object_guard",
    "js_other": "pointer_poison",
}


def default_history_db() -> str:
    """``$SPECTRESIM_HISTORY_DB`` or the committed repo fixture."""
    return (os.environ.get("SPECTRESIM_HISTORY_DB")
            or os.path.join("benchmarks", "baselines", "history.db"))


# --------------------------------------------------------------------------- #
# The diff engine (pure functions; baseline.py and the CLI call these)
# --------------------------------------------------------------------------- #

@dataclass
class ValueDelta:
    """One compared cell value."""

    key: Any
    old: float
    new: float
    allowed: float
    blame: List[str] = field(default_factory=list)

    @property
    def delta(self) -> float:
        return self.new - self.old


@dataclass
class LedgerDrift:
    """One drifted ledger path on one CPU."""

    cpu: str
    path: str
    old: int
    new: int

    @property
    def delta(self) -> int:
        return self.new - self.old

    def describe(self) -> str:
        pct = (100.0 * self.delta / self.old) if self.old else float("inf")
        return (f"{self.cpu}:{self.path} {self.old:,} -> {self.new:,} cycles "
                f"({self.delta:+,}, {pct:+.1f}%)")


@dataclass
class LeakageFlip:
    """One leakage cell whose ``leaked`` verdict changed."""

    cpu: str
    boundary: str
    old: bool
    new: bool

    def describe(self) -> str:
        return (f"{self.cpu} {self.boundary}: leaked "
                f"{str(self.old).lower()} -> {str(self.new).lower()}")


@dataclass
class CellDelta:
    """One changed ledger cell: a per-mitigation blame waterfall.

    ``steps`` holds the (mitigation, cycle delta) decomposition, largest
    magnitude first.  Because every ledger path belongs to exactly one
    mitigation and the totals are entry sums, the steps sum *exactly* to
    ``delta`` — integer arithmetic, no residual; :func:`cell_waterfall`
    raises :class:`~repro.errors.LedgerInvariantError` otherwise.
    """

    cpu: str
    old_total: int
    new_total: int
    steps: List[Tuple[str, int]] = field(default_factory=list)
    drifts: List[LedgerDrift] = field(default_factory=list)

    @property
    def delta(self) -> int:
        return self.new_total - self.old_total


@dataclass
class ValuesDiff:
    """Outcome of a noise-aware value-map comparison."""

    regressions: List[ValueDelta] = field(default_factory=list)
    improvements: List[ValueDelta] = field(default_factory=list)
    missing: List[Any] = field(default_factory=list)
    new_keys: List[Any] = field(default_factory=list)
    compared: int = 0


@dataclass
class RunDiff:
    """Everything a run-vs-run comparison found.

    Value and ledger regressions/improvements, missing and new keys,
    ``cells``, the per-CPU blame waterfalls, and the flipped leakage
    verdicts out of ``leakage_compared`` cells.
    """

    regressions: List[ValueDelta] = field(default_factory=list)
    improvements: List[ValueDelta] = field(default_factory=list)
    ledger_regressions: List[LedgerDrift] = field(default_factory=list)
    ledger_improvements: List[LedgerDrift] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    new_keys: List[str] = field(default_factory=list)
    compared: int = 0
    cells: List[CellDelta] = field(default_factory=list)
    leakage_flips: List[LeakageFlip] = field(default_factory=list)
    leakage_compared: int = 0
    fingerprints: Tuple[str, str] = ("", "")

    @property
    def failed(self) -> bool:
        return bool(self.regressions or self.ledger_regressions
                    or self.missing or self.leakage_flips)

    @property
    def fingerprint_changed(self) -> bool:
        old_fp, new_fp = self.fingerprints
        return bool(old_fp or new_fp) and old_fp != new_fp


def diff_values(old: Mapping[Any, Tuple[float, float]],
                new: Mapping[Any, Tuple[float, float]],
                sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER,
                floor: float = DEFAULT_MIN_PERCENT_POINTS) -> ValuesDiff:
    """Noise-aware comparison of two ``key -> (value, uncertainty)`` maps.

    Keys may be any sortable type (bench payloads use strings).  A key
    moves into ``regressions`` / ``improvements`` only when the delta
    exceeds ``sigma_multiplier × hypot(u_old, u_new) + floor``.
    """
    diff = ValuesDiff()
    diff.new_keys = sorted(set(new) - set(old))
    for key in sorted(old):
        record = new.get(key)
        if record is None:
            diff.missing.append(key)
            continue
        diff.compared += 1
        old_v, old_u = old[key]
        new_v, new_u = record
        allowed = sigma_multiplier * math.hypot(old_u, new_u) + floor
        delta = ValueDelta(key=key, old=float(old_v), new=float(new_v),
                           allowed=allowed)
        if new_v - old_v > allowed:
            diff.regressions.append(delta)
        elif old_v - new_v > allowed:
            diff.improvements.append(delta)
    diff.regressions.sort(key=lambda d: -(d.delta - d.allowed))
    return diff


def diff_ledgers(old_ledgers: Mapping[str, Any],
                 new_ledgers: Mapping[str, Any],
                 rel_tol: float = DEFAULT_LEDGER_REL_TOL) -> List[LedgerDrift]:
    """Per-path drifts across two ``cpu -> {"entries": {...}}`` rollups."""
    drifts: List[LedgerDrift] = []
    for cpu in sorted(old_ledgers):
        old_entries = old_ledgers[cpu].get("entries", {})
        new_entries = new_ledgers.get(cpu, {}).get("entries", {})
        for path in sorted(set(old_entries) | set(new_entries)):
            old_v = int(old_entries.get(path, 0))
            new_v = int(new_entries.get(path, 0))
            if old_v == new_v:
                continue
            scale = max(abs(old_v), 1)
            if abs(new_v - old_v) / scale <= rel_tol:
                continue
            drifts.append(LedgerDrift(cpu=cpu, path=path, old=old_v,
                                      new=new_v))
    return drifts


def diff_leakage(old: Mapping[str, Any],
                 new: Mapping[str, Any]) -> Tuple[List[LeakageFlip], int]:
    """Flipped verdicts across two payload ``leakage`` blocks, and the
    number of cells compared.

    Blocks compare only under the same ``policy``, and only the (cpu,
    boundary) cells present on both sides; a null row (a CPU the policy
    cannot run, such as Zen under ``ibrs``) holds no cells.  ``leaked``
    is the one bit compared: runs stored in the history DB keep it but
    not ``speculated``.
    """
    if (old.get("policy") or "default") != (new.get("policy") or "default"):
        return [], 0
    old_matrix = old.get("matrix") or {}
    new_matrix = new.get("matrix") or {}
    flips: List[LeakageFlip] = []
    compared = 0
    for cpu in sorted(set(old_matrix) & set(new_matrix)):
        old_row = old_matrix[cpu] or {}
        new_row = new_matrix[cpu] or {}
        for boundary in sorted(set(old_row) & set(new_row)):
            compared += 1
            was = bool(old_row[boundary].get("leaked"))
            now = bool(new_row[boundary].get("leaked"))
            if was != now:
                flips.append(LeakageFlip(cpu, boundary, was, now))
    return flips, compared


def cell_waterfall(cpu: str,
                   old_entries: Mapping[str, int],
                   new_entries: Mapping[str, int],
                   drifts: Sequence[LedgerDrift] = ()) -> CellDelta:
    """Decompose one cell's TSC delta into per-mitigation steps.

    The steps sum exactly to ``new_total - old_total`` by construction
    (every path belongs to exactly one mitigation); the closing invariant
    check turns any future bookkeeping slip into a loud failure rather
    than a silently wrong waterfall.
    """
    old_total = sum(int(v) for v in old_entries.values())
    new_total = sum(int(v) for v in new_entries.values())
    by_mitigation: Dict[str, int] = {}
    for path in sorted(set(old_entries) | set(new_entries)):
        _layer, mitigation, _primitive = split_path(path)
        delta = int(new_entries.get(path, 0)) - int(old_entries.get(path, 0))
        if delta:
            by_mitigation[mitigation] = by_mitigation.get(mitigation, 0) + delta
    steps = sorted(((m, d) for m, d in by_mitigation.items() if d),
                   key=lambda kv: (-abs(kv[1]), kv[0]))
    if sum(d for _m, d in steps) != new_total - old_total:
        raise LedgerInvariantError(
            f"waterfall for cell {cpu!r} does not balance: steps sum to "
            f"{sum(d for _m, d in steps):+d} but the cell moved "
            f"{new_total - old_total:+d} cycles")
    return CellDelta(cpu=cpu, old_total=old_total, new_total=new_total,
                     steps=steps, drifts=list(drifts))


def _knob_of(key: str) -> str:
    return key.rsplit(":", 1)[1] if ":" in key else key


def blame_paths(key: str, drifts: Sequence[LedgerDrift]) -> List[str]:
    """Ledger drift paths that plausibly explain a regressed value.

    The value key's knob suffix names a mitigation; drifted paths tagged
    with that mitigation (or, for the JS knobs, the matching primitive)
    are the blame.  Aggregate keys (total/other/overhead) blame every
    drifted path.
    """
    knob = _knob_of(str(key))
    selected: List[LedgerDrift] = []
    for drift in drifts:
        _layer, mitigation, primitive = drift.path.split("/")
        if knob in ("total", "other", "overhead"):
            selected.append(drift)
        elif mitigation == knob:
            selected.append(drift)
        elif JS_KNOB_PRIMITIVES.get(knob) == primitive:
            selected.append(drift)
    selected.sort(key=lambda d: -abs(d.delta))
    return [d.describe() for d in selected]


def diff_payloads(old: Mapping[str, Any], new: Mapping[str, Any],
                  tolerance: Optional[Mapping[str, float]] = None) -> RunDiff:
    """Diff two bench-shaped payloads with the *old* payload's tolerances.

    This is the engine behind ``spectresim check`` and ``spectresim
    history diff``: noise-aware value deltas with ledger blame, exact
    per-path ledger drifts, a blame waterfall for every changed cell, and
    exact leakage verdicts when both payloads carry a leakage block.
    """
    tolerance = dict(tolerance if tolerance is not None
                     else old.get("tolerance", {}))
    multiplier = tolerance.get("sigma_multiplier", DEFAULT_SIGMA_MULTIPLIER)
    floor = tolerance.get("min_percent_points", DEFAULT_MIN_PERCENT_POINTS)
    ledger_rel_tol = tolerance.get("ledger_rel_tol", DEFAULT_LEDGER_REL_TOL)

    diff = RunDiff()
    old_fp = str((old.get("provenance") or {}).get("code_fingerprint") or "")
    new_fp = str((new.get("provenance") or {}).get("code_fingerprint") or "")
    diff.fingerprints = (old_fp, new_fp)

    # Ledger drifts first: they feed the blame report for value deltas.
    old_ledgers = old.get("ledger", {})
    new_ledgers = new.get("ledger", {})
    drifts = diff_ledgers(old_ledgers, new_ledgers, rel_tol=ledger_rel_tol)
    for drift in drifts:
        if drift.delta > 0:
            diff.ledger_regressions.append(drift)
        else:
            diff.ledger_improvements.append(drift)

    # One waterfall per changed cell (a CPU whose ledger moved at all).
    for cpu in sorted(set(old_ledgers) | set(new_ledgers)):
        old_entries = old_ledgers.get(cpu, {}).get("entries", {})
        new_entries = new_ledgers.get(cpu, {}).get("entries", {})
        cell_drifts = [d for d in drifts if d.cpu == cpu]
        if old_entries == new_entries and not cell_drifts:
            continue
        diff.cells.append(cell_waterfall(cpu, old_entries, new_entries,
                                         drifts=cell_drifts))

    old_values = {key: (float(rec["value"]),
                        float(rec.get("uncertainty", 0.0)))
                  for key, rec in old.get("values", {}).items()}
    new_values = {key: (float(rec["value"]),
                        float(rec.get("uncertainty", 0.0)))
                  for key, rec in new.get("values", {}).items()}
    values = diff_values(old_values, new_values,
                         sigma_multiplier=multiplier, floor=floor)
    diff.regressions = values.regressions
    diff.improvements = values.improvements
    diff.missing = values.missing
    diff.new_keys = values.new_keys
    diff.compared = values.compared
    for delta in diff.regressions:
        delta.blame = blame_paths(delta.key, drifts)
    if old.get("leakage") and new.get("leakage"):
        diff.leakage_flips, diff.leakage_compared = diff_leakage(
            old["leakage"], new["leakage"])
    return diff


def render_diff(diff: RunDiff, label_a: str = "old",
                label_b: str = "new") -> str:
    """The one text report of a :class:`RunDiff` (``check`` and ``history
    diff``): waterfalls per cell, value and ledger deltas with blame,
    flipped leakage cells, and a closing verdict line."""
    lines = [f"diff {label_a} -> {label_b}"]
    if diff.fingerprint_changed:
        old_fp, new_fp = diff.fingerprints
        lines.append(f"  code fingerprint changed: "
                     f"{old_fp or '<missing>'} -> {new_fp or '<missing>'}")
    for cell in diff.cells:
        lines.append(
            f"CELL {cell.cpu}: {cell.old_total:,} -> {cell.new_total:,} "
            f"cycles ({cell.delta:+,})")
        for mitigation, delta in cell.steps:
            lines.append(f"  {mitigation:<16} {delta:+14,}")
        lines.append(f"  {'= total':<16} {cell.delta:+14,} (exact)")
        for drift in sorted(cell.drifts, key=lambda d: -abs(d.delta))[:5]:
            lines.append(f"  path: {drift.describe()}")
    for delta in diff.regressions:
        lines.append(
            f"REGRESSION {delta.key}: {delta.old:+.2f}% -> {delta.new:+.2f}% "
            f"({delta.delta:+.2f}pp, allowed +/-{delta.allowed:.2f}pp)")
        for blame in delta.blame:
            lines.append(f"  blame: {blame}")
        if not delta.blame:
            lines.append("  blame: no matching ledger drift "
                         "(measurement-level change)")
    for drift in diff.ledger_regressions:
        lines.append(f"LEDGER REGRESSION {drift.describe()}")
    for flip in diff.leakage_flips:
        lines.append(f"LEAKAGE {flip.describe()}")
    for key in diff.missing:
        lines.append(f"MISSING {key}: present in {label_a}, absent in "
                     f"{label_b}")
    for delta in diff.improvements:
        lines.append(
            f"improvement {delta.key}: {delta.old:+.2f}% -> {delta.new:+.2f}% "
            f"({delta.delta:+.2f}pp)")
    for drift in diff.ledger_improvements:
        lines.append(f"ledger improvement {drift.describe()}")
    for key in diff.new_keys:
        lines.append(f"new {key}: only in {label_b}")
    leakage = (f", {len(diff.leakage_flips)} leakage flips in "
               f"{diff.leakage_compared} cells"
               if diff.leakage_compared else "")
    lines.append(
        f"{diff.compared} values compared: {len(diff.regressions)} "
        f"regressions, {len(diff.improvements)} improvements, "
        f"{len(diff.ledger_regressions)} ledger regressions, "
        f"{len(diff.cells)} changed cells, {len(diff.missing)} missing"
        f"{leakage} -> {'FAIL' if diff.failed else 'OK'}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# The SQLite store
# --------------------------------------------------------------------------- #

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at  TEXT NOT NULL DEFAULT '',
    command     TEXT NOT NULL DEFAULT '',
    kind        TEXT NOT NULL DEFAULT 'bench',
    fingerprint TEXT NOT NULL DEFAULT '',
    version     TEXT NOT NULL DEFAULT '',
    seed        INTEGER,
    dirty       INTEGER NOT NULL DEFAULT 0,
    wall_time_s REAL,
    sim_cycles  INTEGER,
    tolerance   TEXT NOT NULL DEFAULT '{}',
    manifest    TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS cells (
    run_id      INTEGER NOT NULL,
    key         TEXT NOT NULL,
    value       REAL NOT NULL,
    uncertainty REAL NOT NULL DEFAULT 0.0,
    PRIMARY KEY (run_id, key)
);
CREATE TABLE IF NOT EXISTS ledger (
    run_id INTEGER NOT NULL,
    cpu    TEXT NOT NULL,
    path   TEXT NOT NULL,
    cycles INTEGER NOT NULL,
    PRIMARY KEY (run_id, cpu, path)
);
CREATE TABLE IF NOT EXISTS telemetry (
    run_id INTEGER NOT NULL,
    name   TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS leakage (
    run_id     INTEGER NOT NULL,
    cpu        TEXT NOT NULL,
    primitive  TEXT NOT NULL,
    boundary   TEXT NOT NULL,
    policy     TEXT NOT NULL,
    blocked    INTEGER NOT NULL,
    events     INTEGER NOT NULL DEFAULT 0,
    blocked_by TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (run_id, cpu, primitive, boundary, policy)
);
CREATE INDEX IF NOT EXISTS cells_by_key   ON cells (key, run_id);
CREATE INDEX IF NOT EXISTS ledger_by_cpu  ON ledger (cpu, path, run_id);
CREATE INDEX IF NOT EXISTS leakage_by_cpu ON leakage (cpu, boundary, run_id);
"""

#: Schema versions :class:`HistoryStore` upgrades in place on open.
#: v1 -> v2 is purely additive (the ``leakage`` table), so the migration
#: is the ``CREATE TABLE IF NOT EXISTS`` that already ran plus a version
#: stamp.
MIGRATABLE_VERSIONS = (1,)


@dataclass(frozen=True)
class RunInfo:
    """One row of ``history list``."""

    id: int
    created_at: str
    command: str
    kind: str
    fingerprint: str
    version: str
    seed: Optional[int]
    dirty: bool
    wall_time_s: Optional[float]
    sim_cycles: Optional[int]
    values: int
    ledger_cycles: int


def _flatten_telemetry(obj: Any, prefix: str = "",
                       out: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """``{"engine": {"block_hits": 3}} -> {"engine.block_hits": 3.0}``.

    Non-numeric leaves are dropped: telemetry rows are strictly numeric
    time series.
    """
    if out is None:
        out = {}
    if isinstance(obj, Mapping):
        for key in sorted(obj):
            _flatten_telemetry(obj[key], f"{prefix}.{key}" if prefix else
                               str(key), out)
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


class HistoryStore:
    """SQLite-backed, append-only store of run results over time."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._db = sqlite3.connect(path)
        try:
            self._db.executescript(_SCHEMA)
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            self._db.close()
            raise HistoryError(
                f"history db {path!r} is unreadable: {exc}") from exc
        if row is None:
            self._db.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),))
            self._db.commit()
        elif int(row[0]) != SCHEMA_VERSION:
            version = int(row[0])
            if version in MIGRATABLE_VERSIONS:
                # Additive migration: the executescript above already
                # created any missing tables/indexes; stamp the version.
                self._db.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION),))
                self._db.commit()
            else:
                self._db.close()
                raise HistoryError(
                    f"history db {path!r} has schema v{version}, this build "
                    f"reads v{SCHEMA_VERSION}")

    # -- lifecycle --------------------------------------------------------- #

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return int(self._db.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    # -- recording --------------------------------------------------------- #

    def record_payload(self, payload: Mapping[str, Any],
                       command: Optional[str] = None,
                       kind: str = "bench",
                       allow_dirty: bool = False) -> int:
        """Append one bench-shaped payload as a new run; returns its id.

        Refuses payloads whose provenance fingerprint differs from the
        running code unless ``allow_dirty`` — mixing fingerprints in one
        trend line without a flag would make every trend unreadable.
        Dirty rows are recorded with ``dirty=1`` and annotated by the
        dashboard.
        """
        manifest = dict(payload.get("provenance") or {})
        fingerprint = str(manifest.get("code_fingerprint") or "")
        dirty = fingerprint != code_fingerprint()
        if dirty and not allow_dirty:
            raise HistoryError(
                f"payload code fingerprint {fingerprint or '<missing>'} does "
                f"not match the running code ({code_fingerprint()}); "
                f"recording it would mix rows from different code in one "
                f"trend line — pass --allow-dirty to record it flagged")
        seed = manifest.get("seed")
        cursor = self._db.execute(
            "INSERT INTO runs (created_at, command, kind, fingerprint, "
            "version, seed, dirty, wall_time_s, sim_cycles, tolerance, "
            "manifest) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (str(manifest.get("created_at") or ""),
             str(command if command is not None
                 else manifest.get("command") or ""),
             kind,
             fingerprint,
             str(manifest.get("version") or ""),
             int(seed) if seed is not None else None,
             1 if dirty else 0,
             manifest.get("wall_time_s"),
             manifest.get("sim_cycles"),
             json.dumps(payload.get("tolerance", {}), sort_keys=True),
             json.dumps(manifest, sort_keys=True)))
        run_id = int(cursor.lastrowid)
        self._db.executemany(
            "INSERT INTO cells (run_id, key, value, uncertainty) "
            "VALUES (?, ?, ?, ?)",
            [(run_id, key, float(rec["value"]),
              float(rec.get("uncertainty", 0.0)))
             for key, rec in sorted(payload.get("values", {}).items())])
        self._db.executemany(
            "INSERT INTO ledger (run_id, cpu, path, cycles) "
            "VALUES (?, ?, ?, ?)",
            [(run_id, cpu, path, int(cycles))
             for cpu, roll in sorted(payload.get("ledger", {}).items())
             for path, cycles in sorted(roll.get("entries", {}).items())])
        self._db.executemany(
            "INSERT INTO telemetry (run_id, name, value) VALUES (?, ?, ?)",
            sorted((run_id, name, value) for name, value in
                   _flatten_telemetry(payload.get("telemetry", {})).items()))
        leakage = payload.get("leakage") or {}
        policy = str(leakage.get("policy") or "default")
        self._db.executemany(
            "INSERT INTO leakage (run_id, cpu, primitive, boundary, policy, "
            "blocked, events, blocked_by) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [(run_id, cpu,
              str(cell.get("primitive", "spectre_btb")),
              boundary, policy,
              0 if cell.get("leaked") else 1,
              int(cell.get("events", 0)),
              ",".join(cell.get("blocked_by", [])))
             for cpu, row in sorted((leakage.get("matrix") or {}).items())
             if row is not None
             for boundary, cell in sorted(row.items())])
        self._db.commit()
        return run_id

    # -- queries ----------------------------------------------------------- #

    def runs(self) -> List[RunInfo]:
        """Every recorded run, oldest first."""
        rows = self._db.execute(
            "SELECT r.id, r.created_at, r.command, r.kind, r.fingerprint, "
            "r.version, r.seed, r.dirty, r.wall_time_s, r.sim_cycles, "
            "(SELECT COUNT(*) FROM cells c WHERE c.run_id = r.id), "
            "(SELECT COALESCE(SUM(cycles), 0) FROM ledger l "
            " WHERE l.run_id = r.id) "
            "FROM runs r ORDER BY r.id").fetchall()
        return [RunInfo(id=row[0], created_at=row[1], command=row[2],
                        kind=row[3], fingerprint=row[4], version=row[5],
                        seed=row[6], dirty=bool(row[7]), wall_time_s=row[8],
                        sim_cycles=row[9], values=row[10],
                        ledger_cycles=row[11])
                for row in rows]

    def run_info(self, run_id: int) -> RunInfo:
        for info in self.runs():
            if info.id == run_id:
                return info
        raise HistoryError(f"no run {run_id} in {self.path!r}")

    def resolve(self, ref: Any) -> int:
        """A run reference — an id, ``"latest"``, or ``"prev"`` — as an id."""
        ids = [row[0] for row in
               self._db.execute("SELECT id FROM runs ORDER BY id").fetchall()]
        if not ids:
            raise HistoryError(f"history db {self.path!r} has no runs")
        if ref in ("latest", "last", "-1"):
            return ids[-1]
        if ref in ("prev", "previous", "-2"):
            if len(ids) < 2:
                raise HistoryError(
                    f"history db {self.path!r} has only {len(ids)} run(s); "
                    f"no previous run")
            return ids[-2]
        try:
            run_id = int(ref)
        except (TypeError, ValueError):
            raise HistoryError(
                f"bad run reference {ref!r}: want an id, 'latest' or 'prev'")
        if run_id not in ids:
            raise HistoryError(f"no run {run_id} in {self.path!r}")
        return run_id

    def load_run(self, run_id: int) -> Dict[str, Any]:
        """One run reconstructed in the bench payload shape."""
        row = self._db.execute(
            "SELECT tolerance, manifest FROM runs WHERE id = ?",
            (run_id,)).fetchone()
        if row is None:
            raise HistoryError(f"no run {run_id} in {self.path!r}")
        values = {
            key: {"value": value, "uncertainty": uncertainty}
            for key, value, uncertainty in self._db.execute(
                "SELECT key, value, uncertainty FROM cells "
                "WHERE run_id = ? ORDER BY key", (run_id,))
        }
        ledgers: Dict[str, Dict[str, Any]] = {}
        for cpu, path, cycles in self._db.execute(
                "SELECT cpu, path, cycles FROM ledger "
                "WHERE run_id = ? ORDER BY cpu, path", (run_id,)):
            ledgers.setdefault(cpu, {"entries": {}, "total": 0})
            ledgers[cpu]["entries"][path] = cycles
            ledgers[cpu]["total"] += cycles
        telemetry = {
            name: value for name, value in self._db.execute(
                "SELECT name, value FROM telemetry "
                "WHERE run_id = ? ORDER BY name", (run_id,))
        }
        payload = {
            "values": values,
            "ledger": ledgers,
            "telemetry": telemetry,
            "tolerance": json.loads(row[0]),
            "provenance": json.loads(row[1]),
        }
        leakage = self.leakage_matrix(run_id)
        if leakage["matrix"]:
            payload["leakage"] = leakage
        return payload

    def leakage_matrix(self, run_id: int) -> Dict[str, Any]:
        """One run's stored leakage surface, in the payload shape."""
        matrix: Dict[str, Dict[str, Any]] = {}
        policy = "default"
        for cpu, primitive, boundary, row_policy, blocked, events, \
                blocked_by in self._db.execute(
                    "SELECT cpu, primitive, boundary, policy, blocked, "
                    "events, blocked_by FROM leakage WHERE run_id = ? "
                    "ORDER BY cpu, boundary", (run_id,)):
            policy = row_policy
            matrix.setdefault(cpu, {})[boundary] = {
                "primitive": primitive,
                "leaked": not blocked,
                "events": events,
                "blocked_by": [b for b in blocked_by.split(",") if b],
            }
        return {"policy": policy, "matrix": matrix}

    def trend(self, key: str) -> List[Tuple[int, float, float]]:
        """``(run_id, value, uncertainty)`` per run recording ``key``."""
        return [tuple(row) for row in self._db.execute(
            "SELECT run_id, value, uncertainty FROM cells "
            "WHERE key = ? ORDER BY run_id", (key,))]

    def value_keys(self) -> List[str]:
        return [row[0] for row in self._db.execute(
            "SELECT DISTINCT key FROM cells ORDER BY key")]

    def telemetry_trend(self, name: str) -> List[Tuple[int, float]]:
        return [tuple(row) for row in self._db.execute(
            "SELECT run_id, value FROM telemetry "
            "WHERE name = ? ORDER BY run_id", (name,))]

    # -- comparison --------------------------------------------------------- #

    def diff(self, run_a: Any, run_b: Any) -> RunDiff:
        """Diff two stored runs (noise tolerances come from run A)."""
        id_a = self.resolve(run_a)
        id_b = self.resolve(run_b)
        return diff_payloads(self.load_run(id_a), self.load_run(id_b))

    # -- retention ---------------------------------------------------------- #

    def gc(self, keep: int, dry_run: bool = False) -> List[int]:
        """Drop the oldest runs beyond ``keep``; returns the removed ids.

        ``dry_run=True`` returns the ids that *would* be removed without
        touching the database.
        """
        if keep < 0:
            raise HistoryError("gc keep count must be >= 0")
        ids = [row[0] for row in
               self._db.execute("SELECT id FROM runs ORDER BY id").fetchall()]
        doomed = ids[:max(0, len(ids) - keep)]
        if dry_run:
            return doomed
        for run_id in doomed:
            for table in ("cells", "ledger", "telemetry", "leakage"):
                self._db.execute(f"DELETE FROM {table} WHERE run_id = ?",  # noqa: S608
                                 (run_id,))
            self._db.execute("DELETE FROM runs WHERE id = ?", (run_id,))
        self._db.commit()
        return doomed
