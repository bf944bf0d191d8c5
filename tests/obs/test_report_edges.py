"""Dashboard edge cases: empty stores and only-dirty histories must
still render byte-stable, well-formed, self-contained HTML, and the
timeline panel must degrade to a note when no explain runs exist."""

from html.parser import HTMLParser

import pytest

from repro.obs.history import HistoryStore
from repro.obs.provenance import build_manifest
from repro.obs.report import render_report, write_report

#: Elements the report legitimately leaves unclosed.
_VOID = {"br", "hr", "meta", "link", "img", "input", "path", "rect",
         "line", "circle", "polyline"}


class _TagBalance(HTMLParser):
    def __init__(self):
        super().__init__()
        self.stack = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in _VOID:
            return
        if not self.stack:
            self.errors.append(f"stray </{tag}>")
        elif self.stack[-1] != tag:
            self.errors.append(
                f"</{tag}> closes <{self.stack[-1]}>")
        else:
            self.stack.pop()


def _assert_well_formed(html):
    parser = _TagBalance()
    parser.feed(html)
    assert not parser.errors, parser.errors
    assert not parser.stack, f"unclosed tags: {parser.stack}"
    assert html.lower().startswith("<!doctype html>")
    # Self-contained: no external fetches.
    assert "http://" not in html and "https://" not in html
    assert 'src="' not in html


def _payload(bump=0.0, fingerprint=None, kind_command="bench"):
    manifest = build_manifest(command=kind_command, seed=3,
                              cpus=["broadwell"], wall_time_s=1.0 + bump)
    prov = manifest.to_dict()
    if fingerprint is not None:
        prov["code_fingerprint"] = fingerprint
    return {
        "values": {"figure2/broadwell/lebench:total":
                   {"value": 10.0 + bump, "uncertainty": 0.1}},
        "ledger": {"broadwell": {
            "entries": {"kernel/pti/cr3_write": 1000 + int(bump * 10)},
            "total": 1000 + int(bump * 10)}},
        "telemetry": {"cells_per_s": 2.0},
        "tolerance": {},
        "provenance": prov,
    }


@pytest.fixture
def store(tmp_path):
    with HistoryStore(str(tmp_path / "edge.db")) as s:
        yield s


def test_empty_store_renders_well_formed_and_stable(store):
    first = render_report(store)
    second = render_report(store)
    assert first == second
    _assert_well_formed(first)
    # Every panel is present and degrades to its note.
    for anchor in ('id="self-perf"', 'id="trends"', 'id="mitigations"',
                   'id="leakage"', 'id="fuzz"', 'id="timeline"',
                   'id="waterfall"', 'id="annotations"'):
        assert anchor in first
    assert "0 recorded run(s)" in first


def test_only_dirty_runs_render_well_formed_and_stable(store):
    for bump in (0.0, 1.0, 2.0):
        store.record_payload(_payload(bump, fingerprint="feedfacecafe"),
                             allow_dirty=True)
    assert all(run.dirty for run in store.runs())
    first = render_report(store)
    assert first == render_report(store)
    _assert_well_formed(first)
    assert "dirty" in first


def test_timeline_panel_degrades_to_note_without_explain_runs(store):
    store.record_payload(_payload())
    html = render_report(store)
    _assert_well_formed(html)
    assert 'id="timeline"' in html
    assert "no explain runs recorded yet" in html


def test_timeline_panel_lists_explain_runs(store):
    payload = _payload()
    payload["telemetry"] = {"timeline": {
        "events": 114.0, "dropped": 0.0, "digest": 3735928559.0,
        "diverged": 1.0, "divergence_index": 29.0,
        "divergence_tsc": 2966.0, "divergence_instr": 37.0,
        "count.mds": 9.0, "count.cache": 40.0}}
    store.record_payload(payload, kind="explain")
    html = render_report(store)
    _assert_well_formed(html)
    assert "diverged" in html
    assert "#29" in html and "instr 37" in html
    assert f"{3735928559:08x}" in html


def test_self_perf_panel_shows_replica_tiles(store):
    payload = _payload()
    payload["telemetry"] = {"cells_per_s": 2.0, "replicas_per_s": 48.5,
                            "replicas": {"batches": 2, "replicas": 8,
                                         "batched": 5, "scalar_fallbacks": 1,
                                         "hit_rate": 0.75}}
    store.record_payload(payload)
    first = render_report(store)
    assert first == render_report(store)  # byte-stable with replica tiles
    _assert_well_formed(first)
    assert "replicas / sec" in first
    assert "batch hit rate" in first
    assert "48.5" in first
    assert ">75<" in first  # hit rate 0.75 rendered as a percentage tile


def test_write_report_round_trips(tmp_path, store):
    out = str(tmp_path / "dash.html")
    path = write_report(store, out)
    with open(path) as handle:
        _assert_well_formed(handle.read())
