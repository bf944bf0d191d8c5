"""Static HTML dashboard over the run-history store.

``spectresim history report`` renders one self-contained HTML file — no
server, no external assets, stdlib-only templating, inline SVG charts —
with the longitudinal views the paper itself is built around:

* **headline trends** — total overhead per (driver, workload) cell over
  recorded runs, one line per CPU;
* **per-mitigation cost evolution** — a sparkline card per mitigation
  knob, tracking its mean attributed cost across the grid;
* **leakage surface** — the newest run's taint-oracle blocked/leaked
  matrix (CPU model × train→victim boundary) with per-cell blocked-by
  mitigation attribution;
* **blame waterfall** — the latest run diffed against its predecessor,
  each changed ledger cell decomposed into per-mitigation cycle steps
  that sum exactly to the cell's TSC delta;
* **simulator self-performance** — cells/sec, cache hit rate, replica
  throughput and batch hit rate, wall time, as stat tiles with
  sparklines;
* **regression annotations** — every consecutive-run diff that found a
  noise-significant regression, plus fingerprint changes and rows that
  were recorded ``--allow-dirty``.

Output is **byte-stable**: rendering the same database twice yields the
identical file (sorted iteration, fixed float formatting, and no
generation timestamps — the newest run's own recorded ``created_at``
identifies the data vintage instead).
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .history import CellDelta, HistoryStore, RunDiff, RunInfo, diff_payloads

__all__ = ["render_report"]

#: Categorical series slots (light, dark) — fixed assignment order, the
#: first three validate all-pairs for colorblind safety; more CPUs than
#: that fold into the table view.
_SERIES = (("#2a78d6", "#3987e5"),
           ("#eb6834", "#d95926"),
           ("#1baf7a", "#199e70"))
_MAX_SERIES = len(_SERIES)

_CSS = """\
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px 32px; background: #f9f9f7; color: #0b0b0b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
.viz-root {
  --surface-1: #fcfcfb; --text-primary: #0b0b0b; --text-secondary: #52514e;
  --text-muted: #898781; --gridline: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --delta-up: #e34948; --delta-down: #2a78d6; --good: #006300;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) body { background: #0d0d0d; color: #ffffff; }
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --text-muted: #898781; --gridline: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --delta-up: #e66767; --delta-down: #3987e5; --good: #0ca30c;
    --critical: #d03b3b;
  }
}
:root[data-theme="dark"] body { background: #0d0d0d; color: #ffffff; }
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --text-muted: #898781; --gridline: #2c2c2a; --axis: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --delta-up: #e66767; --delta-down: #3987e5; --good: #0ca30c;
  --critical: #d03b3b;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 10px; }
.sub { color: var(--text-secondary); margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 160px;
}
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 600; }
.tile .unit { color: var(--text-muted); font-size: 13px; font-weight: 400; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px;
}
.card .title { color: var(--text-secondary); font-size: 12px; margin-bottom: 4px; }
.legend { display: flex; gap: 16px; margin: 6px 0 10px; font-size: 12px;
  color: var(--text-secondary); }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
.note { color: var(--text-muted); font-size: 13px; }
.flag { color: var(--critical); font-weight: 600; }
.ok { color: var(--good); font-weight: 600; }
table { border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px; }
th, td { padding: 5px 12px; text-align: left; font-size: 13px;
  font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--gridline); }
td.num, th.num { text-align: right; }
details { margin: 10px 0; }
summary { cursor: pointer; color: var(--text-secondary); }
svg text { fill: var(--text-muted); font-size: 11px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
code { font-size: 12px; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _num(value: float, digits: int = 4) -> str:
    """Stable short decimal rendering (no exponent wobble across runs)."""
    text = f"{value:.{digits}f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def _coord(value: float) -> str:
    return f"{value:.2f}"


def _series_color(index: int) -> str:
    return f"var(--series-{index + 1})"


def _flatten(obj: Any, prefix: str = "",
             out: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """``{"engine": {"block_hits": 3}} -> {"engine.block_hits": 3.0}``;
    booleans and other non-numeric leaves are dropped."""
    if out is None:
        out = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


#: ``name -> {run id: value}`` for dotted telemetry names, and
#: ``key -> [(run id, value)]`` for study values, both oldest run first.
TelemetrySeries = Dict[str, Dict[int, float]]
ValueSeries = Dict[str, List[Tuple[int, float]]]


def _series(runs: Sequence[RunInfo]) -> Tuple[TelemetrySeries, ValueSeries]:
    """Every run's telemetry leaves and study values, read from its
    recorded payload once."""
    telemetry: TelemetrySeries = {}
    values: ValueSeries = {}
    for run in runs:
        flat = _flatten(run.payload.get("telemetry") or {})
        for name, value in flat.items():
            telemetry.setdefault(name, {})[run.id] = value
        for key, record in (run.payload.get("values") or {}).items():
            values.setdefault(key, []).append((run.id,
                                               float(record["value"])))
    return telemetry, values


def _split_key(key: str) -> Tuple[str, str, str, str]:
    """``figure2/broadwell/lebench:pti`` -> (driver, cpu, workload, knob)."""
    head, _sep, knob = key.rpartition(":")
    parts = head.split("/")
    while len(parts) < 3:
        parts.append("")
    return parts[0], parts[1], parts[2], knob


# --------------------------------------------------------------------------- #
# SVG building blocks
# --------------------------------------------------------------------------- #

def _scale(points: Sequence[float], lo: float, hi: float,
           out_lo: float, out_hi: float) -> List[float]:
    span = hi - lo
    if span <= 0:
        return [(out_lo + out_hi) / 2.0 for _ in points]
    return [out_lo + (p - lo) / span * (out_hi - out_lo) for p in points]


def _sparkline(values: Sequence[float], width: int = 120,
               height: int = 32, color: str = "var(--series-1)") -> str:
    """A minimal inline trend line (single series: no legend, no axes)."""
    if not values:
        return ""
    pad = 4.0
    lo, hi = min(values), max(values)
    xs = _scale(list(range(len(values))), 0, max(len(values) - 1, 1),
                pad, width - pad)
    ys = _scale(values, lo, hi, height - pad, pad)
    pts = " ".join(f"{_coord(x)},{_coord(y)}" for x, y in zip(xs, ys))
    last = (f'<circle cx="{_coord(xs[-1])}" cy="{_coord(ys[-1])}" r="3" '
            f'fill="{color}" stroke="var(--surface-1)" stroke-width="2"/>')
    return (f'<svg width="{width}" height="{height}" role="img" '
            f'aria-label="trend">'
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linecap="round" '
            f'stroke-linejoin="round"/>{last}</svg>')


def _line_chart(series: Sequence[Tuple[str, List[Tuple[int, float]]]],
                run_ids: Sequence[int], unit: str = "%",
                width: int = 420, height: int = 160) -> str:
    """Multi-series line chart over run ids (x) with hairline gridlines."""
    left, right, top, bottom = 36.0, 10.0, 10.0, 22.0
    values = [v for _label, pts in series for _r, v in pts]
    if not values or not run_ids:
        return '<p class="note">no data</p>'
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    x_of = {rid: x for rid, x in zip(
        run_ids, _scale(list(range(len(run_ids))), 0,
                        max(len(run_ids) - 1, 1), left, width - right))}
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="trend chart">']
    for frac in (0.0, 0.5, 1.0):
        y = top + (1 - frac) * (height - top - bottom)
        value = lo + frac * (hi - lo)
        parts.append(f'<line x1="{_coord(left)}" y1="{_coord(y)}" '
                     f'x2="{_coord(width - right)}" y2="{_coord(y)}" '
                     f'stroke="var(--gridline)" stroke-width="1"/>')
        parts.append(f'<text x="{_coord(left - 4)}" y="{_coord(y + 3)}" '
                     f'text-anchor="end">{_num(value, 2)}{_esc(unit)}</text>')
    for rid in run_ids:
        parts.append(f'<text x="{_coord(x_of[rid])}" '
                     f'y="{_coord(height - 6)}" text-anchor="middle">'
                     f'run {rid}</text>')
    for index, (label, points) in enumerate(series[:_MAX_SERIES]):
        color = _series_color(index)
        ys = {rid: top + (1 - (v - lo) / (hi - lo)) * (height - top - bottom)
              for rid, v in points}
        coords = " ".join(f"{_coord(x_of[rid])},{_coord(ys[rid])}"
                          for rid, _v in points if rid in x_of)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2" '
                     f'stroke-linecap="round" stroke-linejoin="round"/>')
        for rid, value in points:
            if rid not in x_of:
                continue
            parts.append(
                f'<circle cx="{_coord(x_of[rid])}" cy="{_coord(ys[rid])}" '
                f'r="4" fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{_esc(label)} · run {rid}: '
                f'{_num(value)}{_esc(unit)}</title></circle>')
    parts.append("</svg>")
    return "".join(parts)


def _legend(labels: Sequence[str]) -> str:
    if len(labels) < 2:
        return ""
    items = "".join(
        f'<span><span class="swatch" '
        f'style="background:{_series_color(i)}"></span>{_esc(label)}</span>'
        for i, label in enumerate(labels[:_MAX_SERIES]))
    folded = ""
    if len(labels) > _MAX_SERIES:
        folded = (f'<span class="note">+{len(labels) - _MAX_SERIES} more '
                  f'in the table view</span>')
    return f'<div class="legend">{items}{folded}</div>'


def _waterfall_svg(cell: CellDelta, width: int = 520) -> str:
    """Floating-bar waterfall: per-mitigation cycle deltas, exact sum."""
    steps = list(cell.steps) + [("= total", cell.delta)]
    row_h, gap, left, right = 26, 6, 150.0, 10.0
    height = len(steps) * (row_h + gap) + 14
    magnitudes = [abs(d) for _m, d in steps] or [1]
    max_mag = max(magnitudes) or 1
    zero_x = left + (width - left - right) / 2.0
    half = (width - left - right) / 2.0 - 4.0
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="blame waterfall">',
             f'<line x1="{_coord(zero_x)}" y1="4" x2="{_coord(zero_x)}" '
             f'y2="{height - 10}" stroke="var(--axis)" stroke-width="1"/>']
    for row, (mitigation, delta) in enumerate(steps):
        y = row * (row_h + gap) + 6
        bar_w = half * abs(delta) / max_mag
        color = "var(--delta-up)" if delta > 0 else "var(--delta-down)"
        x = zero_x if delta > 0 else zero_x - bar_w
        parts.append(f'<text x="{_coord(left - 8)}" '
                     f'y="{_coord(y + row_h / 2 + 4)}" text-anchor="end">'
                     f'{_esc(mitigation)}</text>')
        if delta:
            radius = min(4.0, bar_w / 2.0)
            parts.append(
                f'<rect x="{_coord(x)}" y="{_coord(y + 4)}" '
                f'width="{_coord(max(bar_w, 1.0))}" '
                f'height="{row_h - 8}" rx="{_coord(radius)}" fill="{color}">'
                f'<title>{_esc(mitigation)}: {delta:+,} cycles</title></rect>')
        anchor = "start" if delta > 0 else "end"
        tx = zero_x + bar_w + 6 if delta > 0 else zero_x - bar_w - 6
        parts.append(f'<text x="{_coord(tx)}" '
                     f'y="{_coord(y + row_h / 2 + 4)}" '
                     f'text-anchor="{anchor}">{delta:+,}</text>')
    parts.append("</svg>")
    return "".join(parts)


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #

def _section_self_perf(telemetry: TelemetrySeries,
                       runs: Sequence[RunInfo]) -> str:
    tiles = []
    specs = [
        ("cells / sec", "cells_per_s", "", 1),
        ("cache hit rate", "cache_hit_rate", "%", 2),
        ("replicas / sec", "replicas_per_s", "", 1),
        ("batch hit rate", "replicas.hit_rate", "%", 2),
    ]
    for label, name, unit, digits in specs:
        values = list(telemetry.get(name, {}).values())
        shown = [v * 100.0 for v in values] if unit == "%" else values
        latest = _num(shown[-1], digits) if shown else "&#8212;"
        spark = _sparkline(shown) if len(shown) >= 2 else ""
        tiles.append(
            f'<div class="tile"><div class="label">{_esc(label)}</div>'
            f'<div class="value">{latest}'
            f'<span class="unit">{_esc(unit)}</span></div>{spark}</div>')
    walls = [(run.id, run.wall_time_s) for run in runs
             if run.wall_time_s is not None]
    wall_values = [w for _rid, w in walls]
    wall_latest = _num(wall_values[-1], 2) if wall_values else "&#8212;"
    wall_spark = _sparkline(wall_values) if len(wall_values) >= 2 else ""
    tiles.append(
        f'<div class="tile"><div class="label">wall time</div>'
        f'<div class="value">{wall_latest}<span class="unit">s</span></div>'
        f'{wall_spark}</div>')
    note = ('<p class="note">Telemetry rows appear for runs recorded by '
            'this build; older or externally imported runs may lack '
            'them.</p>')
    return (f'<h2 id="self-perf">Simulator self-performance</h2>'
            f'<div class="tiles">{"".join(tiles)}</div>{note}')


def _section_trends(values: ValueSeries, run_ids: Sequence[int]) -> str:
    groups: Dict[Tuple[str, str], ValueSeries] = {}
    for key in sorted(values):
        driver, cpu, workload, knob = _split_key(key)
        if knob in ("total", "overhead"):
            groups.setdefault((driver, workload), {})[cpu] = values[key]
    if not groups:
        return ('<h2 id="trends">Headline trends</h2>'
                '<p class="note">no recorded study values yet</p>')
    cards = []
    for (driver, workload), by_cpu in sorted(groups.items()):
        cpus = sorted(by_cpu)
        series = [(cpu, by_cpu[cpu]) for cpu in cpus]
        cards.append(
            f'<div class="card"><div class="title">{_esc(driver)} · '
            f'{_esc(workload)} · total overhead</div>'
            f'{_legend(cpus)}'
            f'{_line_chart(series, run_ids)}</div>')
    return (f'<h2 id="trends">Headline trends</h2>'
            f'<div class="cards">{"".join(cards)}</div>')


def _section_mitigations(values: ValueSeries,
                         run_ids: Sequence[int]) -> str:
    by_knob: Dict[str, Dict[int, List[float]]] = {}
    for key in sorted(values):
        knob = _split_key(key)[3]
        if knob in ("total", "other", "overhead", ""):
            continue
        for rid, value in values[key]:
            by_knob.setdefault(knob, {}).setdefault(rid, []).append(value)
    if not by_knob:
        return ('<h2 id="mitigations">Per-mitigation cost evolution</h2>'
                '<p class="note">no attributed mitigation costs '
                'recorded yet</p>')
    cards = []
    for knob in sorted(by_knob):
        per_run = by_knob[knob]
        means = [sum(per_run[rid]) / len(per_run[rid])
                 for rid in run_ids if rid in per_run]
        if not means:
            continue
        spark = (_sparkline(means, width=160, height=36)
                 if len(means) >= 2 else "")
        cards.append(
            f'<div class="card"><div class="title">{_esc(knob)}</div>'
            f'<div class="value" style="font-size:18px;font-weight:600">'
            f'{_num(means[-1], 2)}'
            f'<span class="unit">% mean</span></div>{spark}</div>')
    note = ('<p class="note">Mean attributed overhead across the recorded '
            'grid (all CPUs, workloads, drivers) per run.</p>')
    return (f'<h2 id="mitigations">Per-mitigation cost evolution</h2>'
            f'<div class="cards">{"".join(cards)}</div>{note}')


def _section_leakage(runs: Sequence[RunInfo]) -> str:
    """Per-CPU × per-boundary leakage matrix from the newest run that
    recorded a taint-oracle surface (see :mod:`repro.obs.leakage`)."""
    head = '<h2 id="leakage">Speculative-leakage surface</h2>'
    for matrix_run in reversed(runs):
        surface = matrix_run.payload.get("leakage") or {}
        # A null row (a CPU the policy cannot run) has no cells to show.
        matrix = {cpu: row for cpu, row in
                  (surface.get("matrix") or {}).items() if row}
        if matrix:
            break
    else:
        return (head + '<p class="note">no leakage surface recorded yet '
                '&#8212; runs predate the taint tracer.</p>')
    policy = surface.get("policy") or "default"
    boundaries = sorted({boundary for row in matrix.values()
                         for boundary in row})
    header = "".join(f"<th>{_esc(b)}</th>" for b in boundaries)
    rows = []
    leaks = 0
    for cpu in sorted(matrix):
        cells = []
        for boundary in boundaries:
            cell = matrix[cpu].get(boundary)
            if cell is None:
                cells.append("<td>&#8212;</td>")
            elif cell.get("leaked"):
                leaks += 1
                events = int(cell.get("events", 0))
                cells.append('<td><span class="flag">LEAK</span> '
                             f'<span class="note">{events} ev</span>'
                             '</td>')
            else:
                why = ", ".join(cell.get("blocked_by", [])) or "no speculation"
                cells.append(f'<td><span class="ok">&#10003;</span> '
                             f'<span class="note">{_esc(why)}</span></td>')
        rows.append(f"<tr><td><code>{_esc(cpu)}</code></td>"
                    f"{''.join(cells)}</tr>")
    intro = (f'<p class="sub">run {matrix_run.id} &#183; policy '
             f'<code>{_esc(policy)}</code> &#183; {leaks} leaking cell(s). '
             f'Cells show the taint oracle&#8217;s verdict per '
             f'train&#8594;victim boundary: &#10003; = tainted data never '
             f'reached an observable channel (blocked-by attribution '
             f'inline), LEAK = leakage events were filed.</p>')
    return (head + intro +
            '<table><thead><tr><th>cpu</th>' + header +
            f"</tr></thead><tbody>{''.join(rows)}</tbody></table>")


def _section_fuzz(telemetry: TelemetrySeries,
                  runs: Sequence[RunInfo]) -> str:
    """Differential-fuzzing campaigns: corpus size, cells swept, and
    oracle verdict per recorded ``spectresim fuzz`` run."""
    head = '<h2 id="fuzz">Differential fuzzing</h2>'
    fuzz_runs = [run for run in runs if run.kind == "fuzz"]
    if not fuzz_runs:
        return (head + '<p class="note">no fuzz campaigns recorded yet '
                '&#8212; run <code>spectresim fuzz</code>.</p>')

    def cell(name: str, run_id: int) -> str:
        value = telemetry.get(name, {}).get(run_id)
        return "&#8212;" if value is None else f"{int(value):,}"

    rows = []
    clean = 0
    for run in fuzz_runs:
        violations = telemetry.get("fuzz.violations", {}).get(run.id)
        if violations == 0:
            verdict = '<span class="ok">&#10003; clean</span>'
            clean += 1
        elif violations is None:
            verdict = "&#8212;"
        else:
            verdict = (f'<span class="flag">{int(violations)} '
                       f'violation(s)</span>')
        rows.append(
            f"<tr><td>{run.id}</td><td>{_esc(run.created_at)}</td>"
            f"<td class='num'>{cell('fuzz.seed', run.id)}</td>"
            f"<td class='num'>{cell('fuzz.programs', run.id)}</td>"
            f"<td class='num'>{cell('fuzz.cells', run.id)}</td>"
            f"<td class='num'>{cell('fuzz.skipped', run.id)}</td>"
            f"<td>{verdict}</td></tr>")
    intro = (f'<p class="sub">{len(fuzz_runs)} campaign(s) recorded, '
             f'{clean} clean. Each campaign sweeps a generated corpus '
             f'over the CPU &#215; policy grid against the engine-parity '
             f'and leakage-contract oracles (see docs/fuzzing.md); a '
             f'violation ships a minimized reproducer.</p>')
    return (head + intro +
            '<table><thead><tr><th>run</th><th>recorded</th>'
            '<th class="num">seed</th><th class="num">programs</th>'
            '<th class="num">cells</th><th class="num">skipped</th>'
            '<th>verdict</th></tr></thead>'
            f"<tbody>{''.join(rows)}</tbody></table>")


def _section_waterfall(diff: Optional[RunDiff],
                       id_a: Optional[int], id_b: Optional[int]) -> str:
    head = '<h2 id="waterfall">Blame waterfall</h2>'
    if diff is None:
        return (head + '<p class="note">needs at least two recorded runs '
                'to diff</p>')
    intro = (f'<p class="sub">run {id_a} &#8594; run {id_b}: each changed '
             f'ledger cell decomposed into per-mitigation cycle deltas '
             f'(steps sum exactly to the cell&#8217;s TSC delta).</p>')
    if not diff.cells:
        return (head + intro +
                '<p class="ok">no ledger drift between these runs &#8212; '
                'attributed cycles are bit-identical.</p>')
    cards = []
    for cell in diff.cells:
        cards.append(
            f'<div class="card"><div class="title">{_esc(cell.cpu)} · '
            f'{cell.old_total:,} &#8594; {cell.new_total:,} cycles '
            f'({cell.delta:+,})</div>{_waterfall_svg(cell)}</div>')
    return head + intro + f'<div class="cards">{"".join(cards)}</div>'


def _section_annotations(diffs: Sequence[Tuple[int, int, RunDiff]],
                         runs: Sequence[RunInfo]) -> str:
    lines = []
    for run in runs:
        if run.dirty:
            lines.append(
                f'<li><span class="flag">dirty</span> run {run.id} was '
                f'recorded with <code>--allow-dirty</code>: its fingerprint '
                f'<code>{_esc(run.fingerprint or "&lt;missing&gt;")}</code> '
                f'does not match the code that recorded it.</li>')
    for id_a, id_b, diff in diffs:
        if diff.fingerprint_changed:
            old_fp, new_fp = diff.fingerprints
            lines.append(
                f'<li>code fingerprint changed between run {id_a} and run '
                f'{id_b}: <code>{_esc(old_fp or "?")}</code> &#8594; '
                f'<code>{_esc(new_fp or "?")}</code></li>')
        for delta in diff.regressions:
            lines.append(
                f'<li><span class="flag">regression</span> '
                f'<code>{_esc(delta.key)}</code> between run {id_a} and run '
                f'{id_b}: {_num(delta.old, 2)}% &#8594; {_num(delta.new, 2)}% '
                f'(allowed &#177;{_num(delta.allowed, 2)}pp)</li>')
        for drift in diff.ledger_regressions:
            lines.append(
                f'<li><span class="flag">ledger regression</span> '
                f'<code>{_esc(drift.cpu)}:{_esc(drift.path)}</code> between '
                f'run {id_a} and run {id_b}: {drift.old:,} &#8594; '
                f'{drift.new:,} cycles</li>')
    body = (f"<ul>{''.join(lines)}</ul>" if lines else
            '<p class="ok">no regressions, fingerprint changes, or dirty '
            'rows across the recorded history.</p>')
    return f'<h2 id="annotations">Regression annotations</h2>{body}'


def _section_runs_table(runs: Sequence[RunInfo]) -> str:
    rows = []
    for run in runs:
        dirty = '<span class="flag">yes</span>' if run.dirty else "no"
        wall = _num(run.wall_time_s, 2) if run.wall_time_s is not None \
            else "&#8212;"
        rows.append(
            f"<tr><td>{run.id}</td><td>{_esc(run.created_at)}</td>"
            f"<td>{_esc(run.command)}</td><td>{_esc(run.kind)}</td>"
            f"<td><code>{_esc(run.fingerprint or '&#8212;')}</code></td>"
            f"<td>{dirty}</td><td class='num'>{run.values}</td>"
            f"<td class='num'>{run.ledger_cycles:,}</td>"
            f"<td class='num'>{wall}</td></tr>")
    return (
        '<details open><summary>All recorded runs</summary>'
        '<table><thead><tr><th>id</th><th>recorded</th><th>command</th>'
        '<th>kind</th><th>fingerprint</th><th>dirty</th>'
        '<th class="num">values</th><th class="num">ledger cycles</th>'
        '<th class="num">wall s</th></tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table></details>")


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

def render_report(store: HistoryStore, title: str = "spectresim run history",
                  ) -> str:
    """The full dashboard as one self-contained HTML string."""
    runs = store.runs()
    run_ids = [run.id for run in runs]
    telemetry, values = _series(runs)
    diffs = [(a.id, b.id, diff_payloads(a.payload, b.payload))
             for a, b in zip(runs, runs[1:])]
    latest_diff = diffs[-1][2] if diffs else None
    latest_pair = (diffs[-1][0], diffs[-1][1]) if diffs else (None, None)
    newest = runs[-1].created_at if runs else "no runs recorded"
    body = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{len(runs)} recorded run(s) &#183; newest: '
        f"{_esc(newest)} &#183; db: <code>{_esc(store.path)}</code></p>",
        _section_self_perf(telemetry, runs),
        _section_trends(values, run_ids),
        _section_mitigations(values, run_ids),
        _section_leakage(runs),
        _section_fuzz(telemetry, runs),
        _section_waterfall(latest_diff, latest_pair[0], latest_pair[1]),
        _section_annotations(diffs, runs),
        _section_runs_table(runs),
    ]
    return ("<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8">\n'
            f"<title>{_esc(title)}</title>\n"
            f"<style>{_CSS}</style>\n"
            '</head><body><div class="viz-root">\n'
            + "\n".join(body) +
            "\n</div></body></html>\n")

