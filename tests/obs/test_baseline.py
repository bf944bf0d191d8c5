"""Bench snapshots and the noise-aware regression gate."""

import dataclasses
import json

import pytest

from repro.core.executor import StudyExecutor
from repro.core.study import Settings
from repro.cpu.model import get_cpu as real_get_cpu
from repro.errors import BaselineError
from repro.obs import baseline
from repro.obs.history import diff_payloads, render_diff


FAST = Settings.fast()


def _fresh_executor():
    # The persistent cache keys cells by (cpu key, config, settings) —
    # which a monkeypatched cost table does NOT change — so the gate
    # tests must simulate for real every time.
    return StudyExecutor(cache_dir=None)


def _collect_fast(**kwargs):
    return baseline.collect(cpus=["broadwell"], settings=FAST,
                            drivers=("figure2",),
                            executor=_fresh_executor(), **kwargs)


# ---------------------------------------------------------------------- #
# Persistence and schema
# ---------------------------------------------------------------------- #

def test_next_bench_path_numbers_from_one(tmp_path):
    assert baseline.next_bench_path(str(tmp_path)).endswith("BENCH_1.json")
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_7.json").write_text("{}")
    (tmp_path / "BENCH_03.txt").write_text("not a bench")
    assert baseline.next_bench_path(str(tmp_path)).endswith("BENCH_8.json")


def test_load_bench_rejects_garbage(tmp_path):
    with pytest.raises(BaselineError):
        baseline.load_bench(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(BaselineError):
        baseline.load_bench(str(bad))
    wrong_kind = tmp_path / "kind.json"
    wrong_kind.write_text(json.dumps({"kind": "something-else", "schema": 1}))
    with pytest.raises(BaselineError):
        baseline.load_bench(str(wrong_kind))
    wrong_schema = tmp_path / "schema.json"
    wrong_schema.write_text(json.dumps(
        {"kind": baseline.BENCH_KIND, "schema": 999}))
    with pytest.raises(BaselineError):
        baseline.load_bench(str(wrong_schema))


def test_write_then_load_round_trip(tmp_path):
    payload = {"schema": baseline.SCHEMA_VERSION, "kind": baseline.BENCH_KIND,
               "values": {}, "ledger": {}}
    path = baseline.write_bench(payload, str(tmp_path / "b" / "BENCH_1.json"))
    assert baseline.load_bench(path) == payload


# ---------------------------------------------------------------------- #
# Comparison semantics on synthetic payloads
# ---------------------------------------------------------------------- #

def _payload(values, ledger_entries=None):
    return {
        "schema": baseline.SCHEMA_VERSION,
        "kind": baseline.BENCH_KIND,
        "tolerance": {"sigma_multiplier": 3.0, "min_percent_points": 0.25,
                      "ledger_rel_tol": 0.0},
        "values": values,
        "ledger": {"broadwell": {"entries": ledger_entries or {},
                                 "total": sum((ledger_entries or {}).values())}},
    }


def test_noise_within_tolerance_is_not_a_regression():
    old = _payload({"figure2/broadwell/lebench:pti":
                    {"value": 10.0, "uncertainty": 0.5}})
    new = _payload({"figure2/broadwell/lebench:pti":
                    {"value": 11.0, "uncertainty": 0.5}})
    diff = diff_payloads(old, new)
    # allowed = 3*hypot(0.5, 0.5) + 0.25 ≈ 2.37pp > 1pp delta
    assert not diff.failed and not diff.regressions
    assert diff.compared == 1


def test_regression_beyond_tolerance_fails_with_blame():
    old = _payload({"figure2/broadwell/lebench:pti":
                    {"value": 10.0, "uncertainty": 0.1}},
                   {"kernel.entry/pti/mov_cr3": 1000,
                    "kernel.handler/base/work": 5000})
    new = _payload({"figure2/broadwell/lebench:pti":
                    {"value": 14.0, "uncertainty": 0.1}},
                   {"kernel.entry/pti/mov_cr3": 1400,
                    "kernel.handler/base/work": 5000})
    diff = diff_payloads(old, new)
    assert diff.failed
    (reg,) = diff.regressions
    assert reg.key.endswith(":pti")
    assert any("kernel.entry/pti/mov_cr3" in blame for blame in reg.blame)
    # The unrelated base entry did not drift and is not blamed.
    assert not any("base/work" in blame for blame in reg.blame)
    assert "REGRESSION" in render_diff(diff)


def test_js_knob_blame_matches_by_primitive():
    old = _payload({"figure3/broadwell/octane2:js_index_masking":
                    {"value": 4.0, "uncertainty": 0.05}},
                   {"jsengine/spectre_v1/index_mask": 1000,
                    "jsengine/spectre_v1/object_guard": 1000})
    new = _payload({"figure3/broadwell/octane2:js_index_masking":
                    {"value": 9.0, "uncertainty": 0.05}},
                   {"jsengine/spectre_v1/index_mask": 2000,
                    "jsengine/spectre_v1/object_guard": 1000})
    diff = diff_payloads(old, new)
    (reg,) = diff.regressions
    assert any("index_mask" in blame for blame in reg.blame)
    assert not any("object_guard" in blame for blame in reg.blame)


def test_improvements_and_missing_keys_are_reported():
    old = _payload({"a:total": {"value": 10.0, "uncertainty": 0.1},
                    "b:total": {"value": 10.0, "uncertainty": 0.1}})
    new = _payload({"a:total": {"value": 5.0, "uncertainty": 0.1}})
    diff = diff_payloads(old, new)
    assert [d.key for d in diff.improvements] == ["a:total"]
    assert diff.missing == ["b:total"]
    assert diff.failed  # a vanished cell fails the gate


def test_ledger_drift_alone_is_flagged():
    old = _payload({}, {"kernel.sched/lazyfp/xsave": 100})
    new = _payload({}, {"kernel.sched/lazyfp/xsave": 101})
    diff = diff_payloads(old, new)
    assert diff.failed
    (drift,) = diff.ledger_regressions
    assert drift.path == "kernel.sched/lazyfp/xsave"
    assert drift.delta == 1


# ---------------------------------------------------------------------- #
# End to end: self-check passes, a perturbed cost table is caught
# ---------------------------------------------------------------------- #

def test_self_snapshot_shows_zero_regressions():
    """Acceptance: bench then check against the snapshot -> no diff."""
    snapshot = _collect_fast()
    fresh = _collect_fast()
    diff = diff_payloads(snapshot, fresh)
    assert not diff.failed
    assert not diff.regressions and not diff.ledger_regressions
    assert diff.compared == len(snapshot["values"]) > 0


def test_ledger_snapshot_is_deterministic_and_verified():
    a = baseline.ledger_snapshot("broadwell")
    b = baseline.ledger_snapshot("broadwell")
    assert a.paths() == b.paths()
    assert a.total() > 0
    # Coverage: the reference run must exercise every instrumented layer.
    layers = {path.split("/")[0] for path in a.paths()}
    assert {"kernel.entry", "kernel.handler", "kernel.exit", "kernel.sched",
            "jsengine", "hv.exit"} <= layers


def test_perturbed_pti_cost_is_flagged_with_mov_cr3_blame(monkeypatch):
    """Acceptance: inflate broadwell's CR3-swap cost; the gate must fail
    the PTI cell and blame kernel.*/pti/mov_cr3."""
    snapshot = _collect_fast()

    stock = real_get_cpu("broadwell")
    slower = dataclasses.replace(
        stock, costs=dataclasses.replace(stock.costs,
                                         swap_cr3=stock.costs.swap_cr3 * 3))

    def patched_get_cpu(key):
        return slower if key == "broadwell" else real_get_cpu(key)

    # Both resolution seams: study cells and the ledger reference run.
    monkeypatch.setattr("repro.core.study.get_cpu", patched_get_cpu)
    monkeypatch.setattr("repro.obs.baseline.get_cpu", patched_get_cpu)

    perturbed = _collect_fast()
    diff = diff_payloads(snapshot, perturbed)
    assert diff.failed
    pti_regressions = [d for d in diff.regressions if d.key.endswith(":pti")]
    assert pti_regressions, "the PTI cell must regress"
    assert any("pti/mov_cr3" in blame
               for reg in pti_regressions for blame in reg.blame)
    drifted = {d.path for d in diff.ledger_regressions}
    assert "kernel.entry/pti/mov_cr3" in drifted
    assert "kernel.exit/pti/mov_cr3" in drifted
    report = render_diff(diff)
    assert "pti/mov_cr3" in report and "FAIL" in report
