"""Run-history store and the unified diff/attribution engine.

The paper is a *longitudinal* study: its headline figures plot how
mitigation cost evolves across kernel versions and microarchitectures.
This module gives the simulator the same posture toward its own results.
A :class:`HistoryStore` is a SQLite database that every bench/check/
profile/fuzz run appends one row to.  Its one ``runs`` table keeps the
run's id, kind and dirty flag next to the bench payload JSON as
recorded, so :meth:`HistoryStore.load_run` returns exactly the payload
that was recorded: values, ledger rollups, nested telemetry, the whole
leakage block and the provenance manifest.

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
    """``$SPECTRESIM_HISTORY_DB``, else ``history.db`` in the cell-cache
    directory: outside the source tree, so recording never dirties a
    checkout."""
    from ..core.executor import default_cache_dir
    return (os.environ.get("SPECTRESIM_HISTORY_DB")
            or os.path.join(default_cache_dir(), "history.db"))


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
    is the one bit compared, because it is the security verdict; a
    ``speculated`` bit (a Table 9/10 entry) that moves alone shows a
    change in what the probe saw, not a leak.
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
CREATE TABLE IF NOT EXISTS runs (
    id      INTEGER PRIMARY KEY AUTOINCREMENT,
    kind    TEXT NOT NULL,
    dirty   INTEGER NOT NULL,
    payload TEXT NOT NULL
)"""

#: The ``runs`` columns of the one-table layout.  A store with any other
#: ``runs`` table (such as the older layout that split each payload over
#: five tables) is refused rather than converted.
_COLUMNS = ("id", "kind", "dirty", "payload")

_SELECT = "SELECT id, kind, dirty, payload FROM runs"


@dataclass(frozen=True)
class RunInfo:
    """One recorded run: its row, and the payload exactly as recorded."""

    id: int
    kind: str
    dirty: bool
    payload: Dict[str, Any]

    @property
    def _manifest(self) -> Mapping[str, Any]:
        return self.payload.get("provenance") or {}

    @property
    def created_at(self) -> str:
        return str(self._manifest.get("created_at") or "")

    @property
    def command(self) -> str:
        return str(self._manifest.get("command") or "")

    @property
    def fingerprint(self) -> str:
        return str(self._manifest.get("code_fingerprint") or "")

    @property
    def wall_time_s(self) -> Optional[float]:
        wall = self._manifest.get("wall_time_s")
        return None if wall is None else float(wall)

    @property
    def values(self) -> int:
        return len(self.payload.get("values") or {})

    @property
    def ledger_cycles(self) -> int:
        return sum(int(cycles)
                   for roll in (self.payload.get("ledger") or {}).values()
                   for cycles in roll.get("entries", {}).values())


def _connect(path: str) -> sqlite3.Connection:
    """Open (creating if need be) the store at ``path``; any failure is a
    one-line :class:`~repro.errors.HistoryError` naming the path."""
    db = None
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        db = sqlite3.connect(path)
        db.execute(_SCHEMA)
        columns = tuple(row[1] for row in
                        db.execute("PRAGMA table_info(runs)"))
        if columns == _COLUMNS:
            return db
        problem = ("in a layout this build does not read; record the "
                   "payloads into a new db")
    except (OSError, sqlite3.Error) as exc:
        problem = f"unreadable: {exc}"
    if db is not None:
        db.close()
    raise HistoryError(f"history db {path!r} is {problem}")


class HistoryStore:
    """SQLite-backed, append-only store of run payloads over time.

    ``create=False`` opens only a store that already exists, so read-only
    callers never leave an empty database behind a mistyped path.
    """

    def __init__(self, path: str, create: bool = True) -> None:
        if not create and not os.path.exists(path):
            raise HistoryError(f"history db {path!r} does not exist")
        self.path = path
        self._db = _connect(path)

    # -- lifecycle --------------------------------------------------------- #

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return int(self._db.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def _write(self, sql: str, params: Sequence[Any]) -> sqlite3.Cursor:
        """Run one statement in its own transaction."""
        try:
            with self._db:
                return self._db.execute(sql, params)
        except sqlite3.Error as exc:
            raise HistoryError(
                f"history db {self.path!r} is not writable: {exc}") from exc

    # -- recording --------------------------------------------------------- #

    def record_payload(self, payload: Mapping[str, Any],
                       kind: str = "bench",
                       allow_dirty: bool = False) -> int:
        """Append one bench-shaped payload as a new run; returns its id.

        Refuses payloads whose provenance fingerprint differs from the
        running code unless ``allow_dirty`` — mixing fingerprints in one
        trend line without a flag would make every trend unreadable.
        Dirty rows are recorded with ``dirty=1`` and annotated by the
        dashboard.
        """
        manifest = payload.get("provenance") or {}
        fingerprint = str(manifest.get("code_fingerprint") or "")
        dirty = fingerprint != code_fingerprint()
        if dirty and not allow_dirty:
            raise HistoryError(
                f"payload code fingerprint {fingerprint or '<missing>'} does "
                f"not match the running code ({code_fingerprint()}); "
                f"recording it would mix rows from different code in one "
                f"trend line — pass --allow-dirty to record it flagged")
        cursor = self._write(
            "INSERT INTO runs (kind, dirty, payload) VALUES (?, ?, ?)",
            (kind, int(dirty), json.dumps(payload)))
        return int(cursor.lastrowid)

    # -- queries ----------------------------------------------------------- #

    def _run_info(self, row: Tuple[int, str, int, str]) -> RunInfo:
        """One row; a payload that is not JSON or not in the bench payload
        shape (:data:`repro.obs.baseline.PAYLOAD`) is a one-line
        :class:`~repro.errors.HistoryError` naming the run."""
        from .baseline import PAYLOAD, check_shape
        run_id, kind, dirty, text = row
        label = f"history db {self.path!r} run {run_id}"
        try:
            payload = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise HistoryError(f"{label}: payload is not JSON: {exc}") from None
        return RunInfo(run_id, kind, bool(dirty),
                       check_shape(payload, PAYLOAD, label, HistoryError))

    def runs(self) -> List[RunInfo]:
        """Every recorded run, oldest first."""
        return [self._run_info(row)
                for row in self._db.execute(f"{_SELECT} ORDER BY id")]

    def run_info(self, run_id: int) -> RunInfo:
        row = self._db.execute(f"{_SELECT} WHERE id = ?",
                               (run_id,)).fetchone()
        if row is None:
            raise HistoryError(f"no run {run_id} in {self.path!r}")
        return self._run_info(row)

    def load_run(self, run_id: int) -> Dict[str, Any]:
        """One run's payload, exactly as recorded."""
        return self.run_info(run_id).payload

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
        if doomed and not dry_run:
            self._write("DELETE FROM runs WHERE id <= ?", (doomed[-1],))
        return doomed
