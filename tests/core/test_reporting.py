"""Reporting: table/figure rendering shape and N/A handling."""

import pytest

from repro.core import microbench as mb
from repro.core import reporting as rep
from repro.core.attribution import AttributionResult
from repro.core.probe import POLICY_IBRS, POLICY_OFF, SCENARIOS, leakage_report
from repro.core.stats import Measurement
from repro.core.study import PairedOverhead
from repro.cpu import all_cpus, get_cpu


def test_render_table_alignment_and_rows():
    out = rep.render_table("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = out.splitlines()
    assert lines[0] == "T"
    assert len(lines) == 5  # title, header, separator, two data rows
    assert lines[1].startswith("a")


def test_fmt_cycles_na():
    assert rep.fmt_cycles(None) == "N/A"
    assert rep.fmt_cycles(12.4) == "12"
    assert rep.fmt_signed(None) == "N/A"
    assert rep.fmt_signed(3.0) == "+3"
    assert rep.fmt_signed(-2.0) == "-2"


def test_render_table1_has_all_rows_and_cpus():
    out = rep.render_table1()
    assert "Page Table Isolation" in out
    assert "Disable SMT" in out
    for cpu in all_cpus():
        assert cpu.key in out


def test_render_table2_matches_catalog():
    out = rep.render_table2()
    assert "Xeon Gold 6354" in out
    assert "Ryzen 5 5600X" in out


def test_render_table3_shows_na_for_immune_parts():
    rows = [mb.table3_row(get_cpu("zen"), 100)]
    out = rep.render_table3(rows)
    assert "N/A" in out


def test_render_table5_signs_deltas():
    rows = [mb.table5_row(get_cpu("zen2"), 100)]
    out = rep.render_table5(rows)
    assert "+13" in out and "+0" in out


def test_render_speculation_matrix_marks_na_for_zen_with_ibrs():
    matrix = leakage_report((get_cpu("zen"),), POLICY_IBRS)["matrix"]
    out = rep.render_speculation_matrix(matrix, ibrs=True)
    assert "N/A" in out
    assert "Table 10" in out


def test_render_speculation_matrix_checks():
    matrix = leakage_report((get_cpu("broadwell"),), POLICY_OFF)["matrix"]
    out = rep.render_speculation_matrix(matrix, ibrs=False)
    assert rep.CHECK in out
    assert "Table 9" in out


def _fake_attribution():
    result = AttributionResult(
        cpu="testcpu", workload="lebench", metric="cycles",
        baseline=Measurement(100.0, 0.5, 10),
        default=Measurement(130.0, 0.5, 10),
    )
    from repro.core.attribution import Contribution
    result.contributions.append(Contribution(
        knob="pti", boot_param="nopti", percent=20.0,
        with_knob=Measurement(130.0, 0.5, 10),
        without_knob=Measurement(110.0, 0.5, 10)))
    result.other_percent = 10.0
    return result


def test_render_attribution_figure_contains_totals_and_segments():
    out = rep.render_figure2([_fake_attribution()])
    assert "testcpu" in out
    assert "30.0" in out        # total
    assert "pti=20.0%" in out
    assert "other=10.0%" in out


def test_render_paired_marks_significance():
    significant = PairedOverhead(
        cpu="a", workload="w",
        baseline=Measurement(100.0, 0.5, 5),
        treated=Measurement(150.0, 0.5, 5),
        overhead_percent=50.0)
    insignificant = PairedOverhead(
        cpu="b", workload="w",
        baseline=Measurement(100.0, 5.0, 5),
        treated=Measurement(101.0, 5.0, 5),
        overhead_percent=1.0)
    out = rep.render_paired([significant, insignificant], "T")
    lines = out.splitlines()
    assert lines[1].endswith("*")
    assert not lines[2].endswith("*")


def test_render_entry_distribution():
    out = rep.render_entry_distribution("cascade_lake", [70, 70, 280, 70])
    assert "70 cycles" in out and "280 cycles" in out
    assert "75.0%" in out


def test_render_markdown_table():
    out = rep.render_markdown_table("T", ["a", "b"], [["1", "2"]])
    lines = out.splitlines()
    assert lines[0] == "### T"
    assert lines[2] == "| a | b |"
    assert lines[3] == "|---|---|"
    assert lines[4] == "| 1 | 2 |"
