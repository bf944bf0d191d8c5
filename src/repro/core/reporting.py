"""Rendering: the paper's tables and figures as aligned text.

Every ``render_*`` function returns a string whose rows/series correspond
one-to-one to a table or figure in the paper, so the benchmark harness can
print paper-shaped output and EXPERIMENTS.md can diff paper-vs-measured.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..cpu.model import CPUModel, all_cpus
from ..mitigations.policy import DEFAULT_KERNEL, TABLE1_ROWS, table1_matrix
from .attribution import AttributionResult
from .probe import SCENARIOS
from .study import PairedOverhead

CHECK = "x"      # the paper's check mark (kept ASCII for plain terminals)
BANG = "!"
BLANK = ""
NA = "N/A"


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[str]]) -> str:
    """Generic aligned text table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [title, fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines) + "\n"


def render_markdown_table(title: str, headers: Sequence[str],
                          rows: Iterable[Sequence[str]]) -> str:
    """The same data as :func:`render_table`, as GitHub-flavored markdown
    (what EXPERIMENTS.md embeds)."""
    lines = [f"### {title}", ""]
    lines.append("| " + " | ".join(str(h) for h in headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines) + "\n"


def fmt_cycles(value: Optional[float], decimals: int = 0) -> str:
    if value is None:
        return NA
    return f"{value:.{decimals}f}"


def fmt_signed(value: Optional[float]) -> str:
    if value is None:
        return NA
    return f"+{value:.0f}" if value >= 0 else f"{value:.0f}"


# --------------------------------------------------------------------------- #
# Tables 1 and 2
# --------------------------------------------------------------------------- #

def render_table1(kernel: Tuple[int, int] = DEFAULT_KERNEL) -> str:
    matrix = table1_matrix(kernel)
    headers = ["Attack", "Mitigation"] + [cpu.key for cpu in all_cpus()]
    rows = []
    for (attack, mitigation), cells in matrix.items():
        display = [CHECK if c == "yes" else (BANG if c == "!" else BLANK)
                   for c in cells]
        rows.append([attack, mitigation] + display)
    return render_table(
        f"Table 1: default mitigations per CPU (kernel {kernel[0]}.{kernel[1]})",
        headers, rows)


def render_table2() -> str:
    headers = ["Vendor", "Model", "Microarchitecture", "Power (W)",
               "Clock (GHz)", "Cores"]
    rows = [
        [cpu.vendor, cpu.model, f"{cpu.microarchitecture} ({cpu.year})",
         str(cpu.power_watts), f"{cpu.clock_ghz:g}", str(cpu.cores)]
        for cpu in all_cpus()
    ]
    return render_table("Table 2: evaluated CPUs", headers, rows)


# --------------------------------------------------------------------------- #
# Tables 3-8 (microbenchmarks)
# --------------------------------------------------------------------------- #

def render_table3(rows) -> str:
    """``rows``: iterable of microbench.EntryExitRow."""
    return render_table(
        "Table 3: syscall / sysret / page table swap cycles",
        ["CPU", "syscall", "sysret", "swap cr3"],
        [[r.cpu, fmt_cycles(r.syscall), fmt_cycles(r.sysret),
          fmt_cycles(r.swap_cr3)] for r in rows])


def render_table4(values: Dict[str, Optional[float]]) -> str:
    return render_table(
        "Table 4: cycles to clear microarchitectural buffers (verw)",
        ["CPU", "Clear Cycles"],
        [[cpu, fmt_cycles(v)] for cpu, v in values.items()])


def render_table5(rows) -> str:
    """``rows``: iterable of microbench.IndirectBranchRow."""
    return render_table(
        "Table 5: indirect branch cycles (baseline + mitigation deltas)",
        ["CPU", "Baseline", "IBRS", "Generic", "AMD"],
        [[r.cpu, fmt_cycles(r.baseline), fmt_signed(r.ibrs_extra),
          fmt_signed(r.generic_extra), fmt_signed(r.amd_extra)] for r in rows])


def render_table6(values: Dict[str, float]) -> str:
    return render_table(
        "Table 6: IBPB cycles",
        ["CPU", "IBPB cycles"],
        [[cpu, fmt_cycles(v)] for cpu, v in values.items()])


def render_table7(values: Dict[str, float]) -> str:
    return render_table(
        "Table 7: RSB stuffing cycles",
        ["CPU", "RSB Fill Cycles"],
        [[cpu, fmt_cycles(v)] for cpu, v in values.items()])


def render_table8(values: Dict[str, float]) -> str:
    return render_table(
        "Table 8: lfence cycles",
        ["CPU", "lfence cycles"],
        [[cpu, fmt_cycles(v)] for cpu, v in values.items()])


# --------------------------------------------------------------------------- #
# Tables 9 and 10 (speculation matrices)
# --------------------------------------------------------------------------- #

_SCENARIO_HEADERS = [
    "user->kernel (sc)", "user->user (sc)", "kernel->kernel (sc)",
    "user->user", "kernel->kernel",
]


def render_speculation_matrix(
    matrix: Dict[str, Optional[Dict[str, Dict[str, Any]]]],
    ibrs: bool,
) -> str:
    """Table 9 or 10 from a :func:`~repro.core.probe.leakage_report`
    ``matrix``: a check mark per cell whose ``speculated`` bit is set."""
    title = ("Table 10: speculation matrix with IBRS enabled" if ibrs
             else "Table 9: speculation matrix with IBRS disabled")
    rows = []
    for cpu, row in matrix.items():
        if row is None:
            rows.append([cpu] + [NA] * len(SCENARIOS))
        else:
            rows.append([cpu] + [CHECK if row[s.label]["speculated"]
                                 else BLANK for s in SCENARIOS])
    return render_table(title, ["CPU"] + _SCENARIO_HEADERS, rows)


# --------------------------------------------------------------------------- #
# Figures 2, 3, 5 (stacked bars as text)
# --------------------------------------------------------------------------- #

def _stacked_bar(segments: Dict[str, float], scale: float = 1.0,
                 max_width: int = 60) -> str:
    glyphs = "#*+=o~.-"
    parts = []
    for i, (name, value) in enumerate(segments.items()):
        width = max(0, int(round(value * scale)))
        width = min(width, max_width)
        if value > 0.05:
            parts.append(glyphs[i % len(glyphs)] * max(width, 1))
    return "".join(parts)


def render_attribution_figure(results: List[AttributionResult], title: str,
                              unit: str = "% overhead") -> str:
    lines = [title]
    for result in results:
        segments = result.as_dict()
        bar = _stacked_bar(segments, scale=1.5)
        lines.append(f"  {result.cpu:16s} total {result.total_overhead_percent:6.1f}{unit[0]}  |{bar}")
        detail = "  ".join(f"{k}={v:.1f}%" for k, v in segments.items()
                           if abs(v) >= 0.05)
        lines.append(f"  {'':16s} {detail}")
    return "\n".join(lines) + "\n"


def render_figure2(results: List[AttributionResult]) -> str:
    return render_attribution_figure(
        results, "Figure 2: mitigation overhead on LEBench (percent, stacked)")


def render_figure3(results: List[AttributionResult]) -> str:
    return render_attribution_figure(
        results, "Figure 3: Octane 2 slowdown from JS and OS mitigations")


def render_paired(results: List[PairedOverhead], title: str) -> str:
    lines = [title]
    for r in results:
        marker = "*" if r.significant else " "
        lines.append(
            f"  {r.cpu:16s} {r.workload:12s} {r.overhead_percent:6.2f}%{marker}"
        )
    lines.append("  (* = difference significant at 95% confidence)")
    return "\n".join(lines) + "\n"


def render_figure5(results: List[PairedOverhead]) -> str:
    return render_paired(
        results, "Figure 5: slowdown from Speculative Store Bypass Disable "
                 "on PARSEC")


# --------------------------------------------------------------------------- #
# Section 6.2.2: eIBRS bimodal kernel entries
# --------------------------------------------------------------------------- #

def render_entry_distribution(cpu: str, latencies: Sequence[int]) -> str:
    from collections import Counter
    counts = Counter(latencies)
    lines = [f"Kernel entry latency distribution on {cpu} "
             f"({len(latencies)} entries)"]
    for value in sorted(counts):
        share = 100.0 * counts[value] / len(latencies)
        lines.append(f"  {value:6d} cycles: {counts[value]:5d} ({share:4.1f}%)")
    return "\n".join(lines) + "\n"
