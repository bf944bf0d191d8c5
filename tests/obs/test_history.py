"""Run-history store: exact round trip, diff blame, HTML determinism."""

import os
import sqlite3

import pytest

from repro.core.executor import default_cache_dir
from repro.errors import HistoryError
from repro.obs.baseline import load_bench
from repro.obs.history import (
    HistoryStore,
    blame_paths,
    cell_waterfall,
    default_history_db,
    diff_leakage,
    diff_payloads,
    diff_values,
    render_diff,
)
from repro.obs.provenance import build_manifest, code_fingerprint
from repro.obs.report import _series, render_report

BENCH_3 = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                       "baselines", "BENCH_3.json")


def make_payload(bump=0.0, fingerprint=None, command="bench"):
    """A bench-shaped payload with two CPUs and a handful of knobs."""
    manifest = build_manifest(command=command, seed=7,
                              cpus=["broadwell", "cascade_lake"],
                              wall_time_s=2.5 + bump)
    prov = manifest.to_dict()
    if fingerprint is not None:
        prov["code_fingerprint"] = fingerprint
    shift = int(bump * 100)
    return {
        "values": {
            "figure2/broadwell/lebench:total":
                {"value": 20.0 + bump, "uncertainty": 0.1},
            "figure2/broadwell/lebench:pti":
                {"value": 11.0 + bump, "uncertainty": 0.05},
            "figure2/broadwell/lebench:retpoline":
                {"value": 4.0, "uncertainty": 0.05},
            "figure2/cascade_lake/lebench:total":
                {"value": 6.0, "uncertainty": 0.1},
            "figure3/broadwell/octane:js_index_masking":
                {"value": 1.5, "uncertainty": 0.02},
        },
        "ledger": {
            "broadwell": {
                "entries": {
                    "kernel/pti/cr3_write": 4000 + shift,
                    "kernel/retpoline/thunk": 1500,
                    "js/spectre_v1/index_mask": 300,
                },
                "total": 5800 + shift,
            },
            "cascade_lake": {
                "entries": {"kernel/retpoline/thunk": 900},
                "total": 900,
            },
        },
        "telemetry": {
            "cells_per_s": 3.0 + bump,
            "cache_hit_rate": 0.5,
            "engine": {"block_hits": 100 + shift, "hit_rate": 0.9},
            "phases": {"figure2": 1.25, "ledger": 0.5},
        },
        "tolerance": {"sigma_multiplier": 3.0, "min_percent_points": 0.25,
                      "ledger_rel_tol": 0.0},
        "provenance": prov,
    }


@pytest.fixture
def store(tmp_path):
    with HistoryStore(str(tmp_path / "h.db")) as s:
        yield s


# --------------------------------------------------------------------------- #
# Store: round-trip, refs, retention
# --------------------------------------------------------------------------- #

def test_record_and_load_round_trips(store):
    payload = make_payload()
    run_id = store.record_payload(payload, kind="bench")
    assert store.load_run(run_id) == payload
    (run,) = store.runs()
    assert (run.id, run.kind, run.payload) == (run_id, "bench", payload)


def test_load_run_returns_the_recorded_bench_payload(store):
    payload = load_bench(BENCH_3)
    run_id = store.record_payload(payload, allow_dirty=True)
    loaded = store.load_run(run_id)
    assert loaded == load_bench(BENCH_3)
    # The blocks a per-field layout would flatten or drop are all there.
    assert loaded["telemetry"]["engine"]["hit_rate"] == pytest.approx(0.859,
                                                                      abs=1e-3)
    assert {"state", "summary"} <= set(loaded["leakage"])
    cells = [cell for row in loaded["leakage"]["matrix"].values()
             for cell in row.values()]
    assert len(cells) == 40 and all("speculated" in cell for cell in cells)


def test_runs_listing_and_info(store):
    store.record_payload(make_payload(), kind="bench")
    store.record_payload(make_payload(1.0), kind="check")
    runs = store.runs()
    assert [r.id for r in runs] == [1, 2]
    assert [r.kind for r in runs] == ["bench", "check"]
    assert runs[0].values == 5
    assert runs[0].ledger_cycles == 5800 + 900
    assert runs[0].fingerprint == code_fingerprint()
    assert not runs[0].dirty
    assert store.run_info(2).kind == "check"
    with pytest.raises(HistoryError):
        store.run_info(99)


def test_resolve_refs(store):
    with pytest.raises(HistoryError):
        store.resolve("latest")       # empty db
    store.record_payload(make_payload())
    with pytest.raises(HistoryError):
        store.resolve("prev")         # only one run
    store.record_payload(make_payload(1.0))
    assert store.resolve("latest") == 2
    assert store.resolve("prev") == 1
    assert store.resolve("1") == 1
    assert store.resolve(2) == 2
    with pytest.raises(HistoryError):
        store.resolve("nope")
    with pytest.raises(HistoryError):
        store.resolve(42)


def test_trend_and_value_keys(store):
    # The dashboard's series: study values per key and dotted telemetry
    # leaves per name, each oldest run first.
    store.record_payload(make_payload(0.0))
    store.record_payload(make_payload(2.0))
    telemetry, values = _series(store.runs())
    assert values["figure2/broadwell/lebench:total"] == [(1, 20.0), (2, 22.0)]
    assert "figure2/cascade_lake/lebench:total" in values
    assert telemetry["cells_per_s"] == {1: 3.0, 2: 5.0}
    assert telemetry["engine.block_hits"] == {1: 100.0, 2: 300.0}


def test_gc_drops_oldest(store):
    for bump in (0.0, 1.0, 2.0):
        store.record_payload(make_payload(bump))
    removed = store.gc(keep=1)
    assert removed == [1, 2]
    assert [r.id for r in store.runs()] == [3]
    assert len(store) == 1
    assert store.load_run(3)["values"] == make_payload(2.0)["values"]
    with pytest.raises(HistoryError, match="no run 1"):
        store.load_run(1)
    with pytest.raises(HistoryError):
        store.gc(-1)


def test_schema_version_mismatch_refused(tmp_path):
    # A runs table in any layout but (id, kind, dirty, payload) is refused
    # and left as it was.
    path = str(tmp_path / "other.db")
    with HistoryStore(path) as store:
        store.record_payload(make_payload())
    db = sqlite3.connect(path)
    db.execute("ALTER TABLE runs ADD COLUMN note TEXT")
    db.commit()
    db.close()
    with pytest.raises(HistoryError, match="layout this build does not read"):
        HistoryStore(path)
    db = sqlite3.connect(path)
    assert db.execute("SELECT COUNT(*) FROM runs").fetchone()[0] == 1
    db.close()


def test_old_layout_store_is_refused_with_one_line(tmp_path):
    # The older layout split each payload over five tables; its runs
    # table had no payload column, and no converter is kept.
    path = str(tmp_path / "old.db")
    db = sqlite3.connect(path)
    db.executescript("""
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        INSERT INTO meta VALUES ('schema_version', '2');
        CREATE TABLE runs (id INTEGER PRIMARY KEY AUTOINCREMENT,
                           created_at TEXT, command TEXT, kind TEXT,
                           fingerprint TEXT, dirty INTEGER,
                           tolerance TEXT, manifest TEXT);
        INSERT INTO runs (kind, dirty) VALUES ('bench', 1);
    """)
    db.close()
    with pytest.raises(HistoryError) as exc:
        HistoryStore(path)
    message = str(exc.value)
    assert message.startswith(f"history db {path!r} is in a layout")
    assert "\n" not in message


def test_default_history_db_env_override(monkeypatch):
    monkeypatch.setenv("SPECTRESIM_HISTORY_DB", "/tmp/custom.db")
    assert default_history_db() == "/tmp/custom.db"
    monkeypatch.delenv("SPECTRESIM_HISTORY_DB")
    # Outside the source tree: recording never dirties a checkout.
    assert default_history_db() == os.path.join(default_cache_dir(),
                                                "history.db")


@pytest.mark.parametrize("make", ["directory", "file-as-parent"])
def test_unopenable_path_is_a_one_line_error(tmp_path, make):
    if make == "directory":
        path = str(tmp_path)
    else:
        (tmp_path / "plain").write_text("")
        path = str(tmp_path / "plain" / "h.db")
    with pytest.raises(HistoryError) as exc:
        HistoryStore(path)
    message = str(exc.value)
    assert message.startswith(f"history db {path!r} is unreadable: ")
    assert "\n" not in message


# --------------------------------------------------------------------------- #
# Fingerprint hygiene
# --------------------------------------------------------------------------- #

def test_record_refuses_foreign_fingerprint(store):
    with pytest.raises(HistoryError, match="allow-dirty"):
        store.record_payload(make_payload(fingerprint="deadbeefdeadbeef"))
    assert len(store) == 0


def test_allow_dirty_records_flagged(store):
    run_id = store.record_payload(
        make_payload(fingerprint="deadbeefdeadbeef"), allow_dirty=True)
    assert store.run_info(run_id).dirty
    clean = store.record_payload(make_payload())
    assert not store.run_info(clean).dirty


def _diff_runs(store, run_a, run_b):
    return diff_payloads(store.load_run(store.resolve(run_a)),
                         store.load_run(store.resolve(run_b)))


def test_diff_reports_fingerprint_change(store):
    store.record_payload(make_payload(fingerprint="aaaa"), allow_dirty=True)
    store.record_payload(make_payload())
    diff = _diff_runs(store, 1, 2)
    assert diff.fingerprint_changed
    assert "fingerprint changed" in render_diff(diff)


# --------------------------------------------------------------------------- #
# Diff engine: blame waterfalls sum exactly
# --------------------------------------------------------------------------- #

def test_diff_blame_steps_sum_exactly_to_cell_delta(store):
    store.record_payload(make_payload(0.0))
    store.record_payload(make_payload(2.0))
    diff = _diff_runs(store, "prev", "latest")
    assert diff.cells, "broadwell ledger moved; a cell delta is due"
    for cell in diff.cells:
        assert sum(step for _m, step in cell.steps) == cell.delta
        assert cell.delta == cell.new_total - cell.old_total
    (cell,) = diff.cells
    assert cell.cpu == "broadwell"
    assert cell.delta == 200
    assert dict(cell.steps) == {"pti": 200}


def test_cell_waterfall_groups_by_mitigation():
    old = {"kernel/pti/cr3_write": 100, "kernel/pti/tlb_flush": 50,
           "kernel/retpoline/thunk": 30}
    new = {"kernel/pti/cr3_write": 140, "kernel/pti/tlb_flush": 45,
           "kernel/retpoline/thunk": 10, "js/spectre_v1/index_mask": 5}
    cell = cell_waterfall("broadwell", old, new)
    assert cell.old_total == 180 and cell.new_total == 200
    assert dict(cell.steps) == {"pti": 35, "retpoline": -20, "spectre_v1": 5}
    # ordered by decreasing magnitude
    assert [m for m, _d in cell.steps] == ["pti", "retpoline", "spectre_v1"]
    assert sum(d for _m, d in cell.steps) == cell.delta == 20


def test_diff_values_noise_aware_and_generic_keys():
    old = {("a", "x"): (10.0, 0.5), ("a", "y"): (5.0, 0.0),
           ("gone",): (1.0, 0.0)}
    new = {("a", "x"): (10.4, 0.5), ("a", "y"): (9.0, 0.0),
           ("fresh",): (2.0, 0.0)}
    diff = diff_values(old, new, sigma_multiplier=3.0, floor=0.25)
    # x moved 0.4 < 3*hypot(.5,.5)+.25: inside noise
    assert [d.key for d in diff.regressions] == [("a", "y")]
    assert diff.missing == [("gone",)]
    assert diff.new_keys == [("fresh",)]
    assert diff.compared == 2


def test_blame_paths_matches_knob_and_js_primitives():
    from repro.obs.history import LedgerDrift
    drifts = [LedgerDrift("bw", "kernel/pti/cr3_write", 10, 20),
              LedgerDrift("bw", "js/spectre_v1/index_mask", 5, 9)]
    assert len(blame_paths("f2/bw/lebench:pti", drifts)) == 1
    assert len(blame_paths("f3/bw/octane:js_index_masking", drifts)) == 1
    assert len(blame_paths("f2/bw/lebench:total", drifts)) == 2
    assert blame_paths("f2/bw/lebench:ssbd", drifts) == []


def test_diff_payloads_of_identical_payloads_is_empty():
    diff = diff_payloads(make_payload(), make_payload())
    assert not diff.failed
    assert diff.compared == 5
    assert (diff.regressions, diff.improvements, diff.missing,
            diff.new_keys) == ([], [], [], [])
    assert (diff.ledger_regressions, diff.ledger_improvements,
            diff.cells) == ([], [], [])
    assert render_diff(diff, "a", "b").endswith(
        "5 values compared: 0 regressions, 0 improvements, "
        "0 ledger regressions, 0 changed cells, 0 missing -> OK\n")


def _leakage(policy, **rows):
    return {"policy": policy, "matrix": {
        cpu: None if row is None else
        {boundary: {"leaked": leaked, "speculated": leaked}
         for boundary, leaked in row.items()}
        for cpu, row in rows.items()}}


def test_diff_leakage_compares_leaked_on_cells_present_on_both_sides():
    old = _leakage("ibrs", zen=None, broadwell={"u->k": False, "k->k": True},
                   zen3={"u->k": False})
    new = _leakage("ibrs", zen=None, broadwell={"u->k": True, "k->k": True})
    (flip,), compared = diff_leakage(old, new)
    assert compared == 2  # zen3 absent on one side, zen a null row
    assert (flip.cpu, flip.boundary, flip.old, flip.new) == (
        "broadwell", "u->k", False, True)
    assert flip.describe() == "broadwell u->k: leaked false -> true"
    # Runs stored in the history DB keep leaked but not speculated.
    for row in new["matrix"]["broadwell"].values():
        del row["speculated"]
    assert diff_leakage(old, new) == ([flip], 2)


def test_diff_leakage_skips_blocks_under_different_policies():
    old = _leakage("off", broadwell={"u->k": True})
    new = _leakage("ibrs", broadwell={"u->k": False})
    assert diff_leakage(old, new) == ([], 0)


def test_diff_payloads_fails_on_a_flipped_leakage_cell():
    old, new = make_payload(), make_payload()
    old["leakage"] = _leakage("default", cascade_lake={"k->k": True})
    new["leakage"] = _leakage("default", cascade_lake={"k->k": False})
    diff = diff_payloads(old, new)
    assert diff.failed and diff.leakage_compared == 1
    text = render_diff(diff, "a", "b")
    assert "LEAKAGE cascade_lake k->k: leaked true -> false\n" in text
    assert text.endswith("0 missing, 1 leakage flips in 1 cells -> FAIL\n")
    assert not diff_payloads(old, old).failed


def test_diff_payloads_reports_a_moved_value_with_its_delta():
    key = "figure2/cascade_lake/lebench:total"
    old = make_payload()
    up = make_payload()
    up["values"][key]["value"] += 3.0
    diff = diff_payloads(old, up)
    (moved,) = diff.regressions
    assert (moved.key, moved.old, moved.new) == (key, 6.0, 9.0)
    assert moved.delta == pytest.approx(3.0)
    assert diff.failed and diff.improvements == []
    down = make_payload()
    down["values"][key]["value"] -= 3.0
    diff = diff_payloads(old, down)
    (moved,) = diff.improvements
    assert moved.key == key and moved.delta == pytest.approx(-3.0)
    assert not diff.failed and diff.regressions == []


def test_diff_payloads_uses_old_payloads_tolerance():
    old = make_payload()
    new = make_payload()
    new["values"]["figure2/broadwell/lebench:total"]["value"] += 0.5
    # within 3-sigma + 0.25 floor of the recorded uncertainties
    assert not diff_payloads(old, new).failed
    old["tolerance"] = {"sigma_multiplier": 0.0, "min_percent_points": 0.1}
    assert diff_payloads(old, new).failed


def test_render_diff_lists_every_changed_cell(store):
    store.record_payload(make_payload(0.0))
    store.record_payload(make_payload(2.0))
    text = render_diff(_diff_runs(store, 1, 2), "run 1", "run 2")
    assert "CELL broadwell" in text
    assert "(exact)" in text
    assert "REGRESSION figure2/broadwell/lebench:pti" in text
    assert "blame: broadwell:kernel/pti/cr3_write" in text


# --------------------------------------------------------------------------- #
# Dashboard: deterministic, self-contained
# --------------------------------------------------------------------------- #

def test_report_byte_stable_and_sectioned(store):
    store.record_payload(make_payload(0.0))
    store.record_payload(make_payload(2.0))
    first = render_report(store)
    second = render_report(store)
    assert first == second
    for anchor in ('id="trends"', 'id="waterfall"', 'id="self-perf"',
                   'id="mitigations"', 'id="annotations"'):
        assert anchor in first
    assert "<svg" in first
    # self-contained: no external fetches
    assert "http://" not in first and "https://" not in first
    assert 'src="' not in first


def test_report_flags_dirty_rows(store):
    store.record_payload(make_payload(fingerprint="feedface"),
                         allow_dirty=True)
    store.record_payload(make_payload())
    html = render_report(store)
    assert "dirty" in html
    assert "fingerprint changed" in html


def test_report_renders_empty_db(store):
    html = render_report(store)
    assert "0 recorded run(s)" in html
    assert render_report(store) == html


# --------------------------------------------------------------------------- #
# Leakage surface
# --------------------------------------------------------------------------- #

def make_leakage_block():
    def cell(leaked, blocked_by=(), events=0):
        return {"primitive": "spectre_btb", "leaked": leaked,
                "events": events, "blocked_by": list(blocked_by)}
    return {
        "policy": "default",
        "matrix": {
            "broadwell": {
                "user->kernel (syscall)":
                    cell(False, ["spectre_v2/retpoline"]),
                "user->user (syscall)":
                    cell(False, ["spectre_v2/retpoline"]),
            },
            "cascade_lake": {
                "user->kernel (syscall)":
                    cell(False, ["hardware/btb_isolation"]),
                "user->user (syscall)": cell(True, events=6),
            },
        },
        "state": {"events": {}, "channels": {}, "blocked": {}, "dropped": 0},
        "summary": {"events": 6, "unique_sinks": 1, "by_path": {},
                    "blocked": {}, "dropped": 0},
    }


def test_leakage_round_trips_through_the_store(store):
    payload = make_payload()
    payload["leakage"] = make_leakage_block()
    run_id = store.record_payload(payload)
    surface = store.load_run(run_id)["leakage"]
    assert surface == make_leakage_block()
    leak = surface["matrix"]["cascade_lake"]["user->user (syscall)"]
    assert leak["leaked"] and leak["events"] == 6


def test_leakage_absent_payload_omits_block(store):
    run_id = store.record_payload(make_payload())
    assert "leakage" not in store.load_run(run_id)


def test_gc_drops_leakage_rows(store):
    for bump in (0.0, 1.0, 2.0):
        payload = make_payload(bump)
        payload["leakage"] = make_leakage_block()
        store.record_payload(payload)
    store.gc(1)
    assert len(store) == 1
    (run,) = store.runs()
    assert run.id == 3 and run.payload["leakage"] == make_leakage_block()


def test_report_renders_leakage_panel(store):
    payload = make_payload()
    payload["leakage"] = make_leakage_block()
    store.record_payload(payload)
    html = render_report(store)
    assert 'id="leakage"' in html
    assert "LEAK" in html
    assert "spectre_v2/retpoline" in html
    assert html == render_report(store)  # byte-stable


def test_report_notes_missing_leakage(store):
    store.record_payload(make_payload())
    html = render_report(store)
    assert 'id="leakage"' in html
    assert "no leakage surface recorded" in html
