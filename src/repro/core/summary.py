"""The paper's section 8: answer the three study questions from data.

The paper closes by revisiting its three questions.  This module computes
those answers from the actual experiment results rather than restating
them, so the conclusions regenerate with the data:

1. *Which attacks have the greatest performance impact?*  — rank
   mitigation contributions across the Figure 2/3 attributions.
2. *What drives the cost of mitigations for those attacks?*  — compare
   each primitive's cycle cost across generations (did the primitive get
   faster, or did the need for it disappear?).
3. *What predictions can we make going forward?*  — the structural facts:
   which expensive mitigations have hardware replacements on some parts
   and which have none anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cpu.model import CPUModel, all_cpus
from . import microbench
from .attribution import AttributionResult


@dataclass
class AttackImpact:
    """Aggregate impact of one mitigation knob across CPUs."""

    knob: str
    workload: str
    mean_percent: float
    worst_cpu: str
    worst_percent: float


@dataclass
class PrimitiveTrend:
    """How one mitigation primitive's cost evolved across Intel parts."""

    name: str
    oldest_cycles: float
    newest_cycles: Optional[float]   # None = primitive no longer needed
    #: True when the *primitive* got cheaper; False when only the need
    #: for it went away (the paper's section 8 distinction).
    primitive_improved: bool


@dataclass
class StudySummary:
    question1: List[AttackImpact] = field(default_factory=list)
    question2: List[PrimitiveTrend] = field(default_factory=list)
    question3: List[str] = field(default_factory=list)


def _rank_impacts(results: Sequence[AttributionResult],
                  workload: str, top: int) -> List[AttackImpact]:
    by_knob: Dict[str, List[Tuple[str, float]]] = {}
    for result in results:
        for contribution in result.contributions:
            by_knob.setdefault(contribution.knob, []).append(
                (result.cpu, contribution.percent))
    impacts = []
    for knob, values in by_knob.items():
        worst_cpu, worst = max(values, key=lambda pair: pair[1])
        mean = sum(v for _, v in values) / len(values)
        impacts.append(AttackImpact(knob=knob, workload=workload,
                                    mean_percent=mean, worst_cpu=worst_cpu,
                                    worst_percent=worst))
    impacts.sort(key=lambda impact: impact.mean_percent, reverse=True)
    return impacts[:top]


def question1_attack_impacts(
        figure2_results: Sequence[AttributionResult],
        figure3_results: Sequence[AttributionResult],
        top: int = 4) -> List[AttackImpact]:
    """Rank mitigations by measured impact, per workload family, from the
    Figure 2 (LEBench) and Figure 3 (Octane 2) attributions."""
    impacts = _rank_impacts(figure2_results, "lebench", top)
    impacts += _rank_impacts(figure3_results, "octane2", top)
    return impacts


def question2_primitive_trends(iterations: int = 300) -> List[PrimitiveTrend]:
    """Did the expensive primitives get faster, or just unnecessary?

    Oldest = Broadwell, newest = Ice Lake Server, matching the paper's
    Intel arc.  IBPB is the exception that genuinely got faster; PTI and
    verw didn't improve — the new parts simply don't need them.
    """
    from ..cpu.model import get_cpu
    old = get_cpu("broadwell")
    new = get_cpu("ice_lake_server")
    trends: List[PrimitiveTrend] = []

    old_cr3 = microbench.table3_row(old, iterations).swap_cr3
    trends.append(PrimitiveTrend(
        "page table swap (PTI)", old_cr3,
        microbench.table3_row(new, iterations).swap_cr3,
        primitive_improved=False))

    trends.append(PrimitiveTrend(
        "verw buffer clear (MDS)",
        microbench.table4_value(old, iterations),
        microbench.table4_value(new, iterations),
        primitive_improved=False))

    old_ibpb = microbench.table6_value(old, 60)
    new_ibpb = microbench.table6_value(new, 60)
    trends.append(PrimitiveTrend(
        "IBPB (Spectre V2)", old_ibpb, new_ibpb,
        primitive_improved=new_ibpb < old_ibpb / 2))

    old_retp = microbench.table5_row(old, iterations).generic_extra
    new_retp = microbench.table5_row(new, iterations).generic_extra
    trends.append(PrimitiveTrend(
        "generic retpoline (Spectre V2)", old_retp, new_retp,
        primitive_improved=new_retp < old_retp / 2))

    trends.append(PrimitiveTrend(
        "lfence (Spectre V1)",
        microbench.table8_value(old, iterations),
        microbench.table8_value(new, iterations),
        primitive_improved=False))
    return trends


def question3_outlook(cpus: Optional[Sequence[CPUModel]] = None) -> List[str]:
    """Structural facts supporting the paper's cautious optimism."""
    cpus = list(cpus or all_cpus())
    newest = max(cpus, key=lambda c: c.year)
    facts: List[str] = []
    if not newest.vulns.meltdown and not newest.vulns.mds:
        facts.append(
            "the most expensive OS-boundary mitigations (PTI, verw) are "
            f"unnecessary on the newest part ({newest.microarchitecture}): "
            "hardware fixes, not faster software, removed the cost")
    if all(cpu.vulns.ssb for cpu in cpus):
        facts.append(
            "no part of either vendor sets SSB_NO — Speculative Store "
            "Bypass still has no hardware fix, and its SSBD penalty grows "
            "on newer parts")
    if all(cpu.vulns.spectre_v1 for cpu in cpus):
        facts.append(
            "Spectre V1 has no hardware mitigation anywhere: the JS "
            "sandbox keeps paying index masking and object guards on "
            "every generation")
    eibrs = [cpu.key for cpu in cpus if cpu.predictor.supports_eibrs]
    if eibrs:
        facts.append(
            "eIBRS replaced retpolines on "
            f"{', '.join(eibrs)} but does not protect same-mode kernel "
            "branches (the BHI gap)")
    return facts


def summarize(figure2_results: Sequence[AttributionResult],
              figure3_results: Sequence[AttributionResult]) -> StudySummary:
    """Compute the full section-8 answer set from the Figure 2/3 results
    (``study.figure2``/``study.figure3``); runs no study driver."""
    return StudySummary(
        question1=question1_attack_impacts(figure2_results, figure3_results),
        question2=question2_primitive_trends(),
        question3=question3_outlook(),
    )


def render_summary(summary: StudySummary) -> str:
    lines = ["Section 8, recomputed from the data", ""]
    lines.append("Q1: which attacks have the greatest performance impact?")
    for impact in summary.question1:
        lines.append(
            f"  {impact.workload:8s} {impact.knob:18s} mean "
            f"{impact.mean_percent:5.1f}%  worst {impact.worst_percent:5.1f}% "
            f"on {impact.worst_cpu}")
    lines.append("")
    lines.append("Q2: did the mitigations themselves get faster?")
    for trend in summary.question2:
        newest = ("no longer needed" if trend.newest_cycles is None
                  else f"{trend.newest_cycles:.0f} cycles")
        verdict = "primitive improved" if trend.primitive_improved else \
            "primitive unchanged"
        lines.append(f"  {trend.name:32s} {trend.oldest_cycles:6.0f} -> "
                     f"{newest:16s} ({verdict})")
    lines.append("")
    lines.append("Q3: outlook")
    for fact in summary.question3:
        lines.append(f"  - {fact}")
    return "\n".join(lines) + "\n"
