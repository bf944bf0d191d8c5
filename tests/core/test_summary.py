"""The recomputed section-8 answers."""

import pytest

from repro.core.summary import (
    question1_attack_impacts,
    question2_primitive_trends,
    question3_outlook,
    render_summary,
    summarize,
)


@pytest.fixture(scope="module")
def figures(fast_run):
    """Figures 2 and 3 over every CPU, at ``all --fast``'s settings."""
    return fast_run.studies["figure2"], fast_run.studies["figure3"]


@pytest.fixture(scope="module")
def summary(figures):
    return summarize(*figures)


def test_q1_top_lebench_impacts_are_pti_and_mds(summary):
    lebench = [i for i in summary.question1 if i.workload == "lebench"]
    assert {lebench[0].knob, lebench[1].knob} == {"pti", "mds"}
    assert lebench[0].worst_cpu in ("broadwell", "skylake_client")


def test_q1_top_octane_impacts_are_ssbd_and_guards(summary):
    octane = [i for i in summary.question1 if i.workload == "octane2"]
    top_two = {octane[0].knob, octane[1].knob}
    assert "ssbd" in top_two or "js_object_guards" in top_two
    assert all(i.mean_percent > 0 for i in octane[:3])


def test_q2_only_ibpb_improved(summary):
    improved = {t.name for t in summary.question2 if t.primitive_improved}
    assert improved == {"IBPB (Spectre V2)"}


def test_q2_pti_and_verw_became_unnecessary_not_faster(summary):
    by_name = {t.name: t for t in summary.question2}
    assert by_name["page table swap (PTI)"].newest_cycles is None
    assert by_name["verw buffer clear (MDS)"].newest_cycles is None


def test_q3_structural_facts(summary):
    text = " ".join(summary.question3)
    assert "SSB_NO" in text
    assert "Spectre V1" in text
    assert "BHI" in text or "eIBRS" in text


def test_render_summary_contains_all_sections(summary):
    out = render_summary(summary)
    assert "Q1:" in out and "Q2:" in out and "Q3:" in out
    assert "primitive improved" in out
    assert "no longer needed" in out


def test_question_functions_standalone(figures):
    impacts = question1_attack_impacts(*figures, top=2)
    assert len(impacts) == 4  # 2 per workload family
    trends = question2_primitive_trends(iterations=100)
    assert len(trends) == 5
    assert question3_outlook()
