"""Every row of :mod:`tests.paper.claims`, checked against what
``spectresim all --fast`` computes (the ``fast_run`` fixture)."""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path

import pytest

from repro.core.attribution import SCORE
from repro.core.probe import SCENARIOS
from repro.cpu import CPU_ORDER, get_cpu
from repro.mitigations.policy import table1_matrix

from .claims import (CLAIMS, Band, Exact, Interval, Mark, NA, Order,
                     SPEC_COLUMNS, table1_slug)


# --------------------------------------------------------------------------- #
# Measured cells: each claim ID's value in the fast run
# --------------------------------------------------------------------------- #

def _slowdown(treated, baseline, score: bool) -> Interval:
    """Percent slowdown of ``treated`` against ``baseline`` (two
    measurements), with the interval their 95% intervals bound."""
    if score:
        return Interval(100.0 * (1.0 - treated.mean / baseline.mean),
                        100.0 * (1.0 - treated.ci_high / baseline.ci_low),
                        100.0 * (1.0 - treated.ci_low / baseline.ci_high))
    return Interval(100.0 * (treated.mean / baseline.mean - 1.0),
                    100.0 * (treated.ci_low / baseline.ci_high - 1.0),
                    100.0 * (treated.ci_high / baseline.ci_low - 1.0))


def _knob_share(result, knob: str):
    """A knob's attributed percent: the step between the two measurements
    around it, over the all-off baseline; None where it is not measured."""
    step = result.contribution_for(knob)
    if step is None:
        return None
    # The percent is (with - without) for cycles, (without - with) for a score.
    minuend, subtrahend = (
        (step.without_knob, step.with_knob) if result.metric == SCORE
        else (step.with_knob, step.without_knob))
    scale = 100.0 / result.baseline.mean
    return Interval(step.percent,
                    scale * (minuend.ci_low - subtrahend.ci_high),
                    scale * (minuend.ci_high - subtrahend.ci_low))


def _attribution(result, cell: str):
    if cell == "total":
        return _slowdown(result.default, result.baseline,
                         result.metric == SCORE)
    if cell == "top_two":
        ranked = sorted(result.contributions, key=lambda c: c.percent)
        return tuple(sorted(c.knob for c in ranked[-2:]))
    if cell == "js_share":
        js = sum(c.percent for c in result.contributions
                 if c.knob.startswith("js_"))
        return js / result.total_overhead_percent
    return _knob_share(result, cell)


def _by_cpu(results):
    return {result.cpu: result for result in results}


def _paired(results):
    return {(r.cpu, r.workload): _slowdown(r.treated, r.baseline, False)
            for r in results}


def _figure(run, name: str, subject: str, cell: str):
    results = _by_cpu(run.studies[name])
    if subject == "decline":   # Broadwell's Figure 2 total over Ice Lake Server's
        return (results["broadwell"].total_overhead_percent
                / results["ice_lake_server"].total_overhead_percent)
    if subject == "no_relief":  # Ice Lake Server's Figure 3 total over Broadwell's
        return (results["ice_lake_server"].total_overhead_percent
                / results["broadwell"].total_overhead_percent)
    return _attribution(results[subject], cell)


def _figure5(run, subject: str, cell: str):
    cells = _paired(run.studies["figure5"])
    if subject == "peak":
        return "/".join(max(cells, key=lambda key: cells[key].point))
    return cells[subject, cell]


def _section44(run, subject: str, cell: str):
    if subject == "lfs_median":
        return statistics.median_high(
            r.overhead_percent for r in run.studies["lfs"])
    if cell == "guest_over_host":
        return run.guest_over_host
    if cell == "cycles_per_exit":
        return run.cycles_per_exit
    driver = "vm_lebench" if cell == "vm_lebench" else "lfs"
    return _paired(run.studies[driver])[subject, cell]


def _section45(run, subject: str, cell: str):
    if subject == "within_half":
        results = run.studies["parsec_default"]
        return (sum(abs(r.overhead_percent) < 0.5 for r in results)
                / len(results))
    return _paired(run.studies["parsec_default"])[subject, cell]


def _section622(run, subject: str, cell: str):
    latencies = run.entries[subject, cell != "modes_eibrs_off"]
    counts = Counter(latencies)
    modes = sorted(counts)
    if cell in ("modes", "modes_eibrs_off"):
        return len(modes)
    if cell == "scrub_extra":
        return modes[-1] - modes[0]
    return len(latencies) / counts[modes[-1]]   # entries per slow entry


#: Section 8's primitives, as ``summary`` names them.
_PRIMITIVES = {"swap_cr3": "page table swap (PTI)",
               "verw": "verw buffer clear (MDS)", "ibpb": "IBPB (Spectre V2)",
               "generic_retpoline": "generic retpoline (Spectre V2)",
               "lfence": "lfence (Spectre V1)"}


def _section8(run, subject: str, cell: str):
    if cell == "top_two":
        ranked = [i.knob for i in run.summary.question1 if i.workload == subject]
        return tuple(sorted(ranked[:2]))
    if cell == "improved":
        (trend,) = (t for t in run.summary.question2
                    if t.name == _PRIMITIVES[subject])
        return trend.primitive_improved
    figure2 = _by_cpu(run.studies["figure2"])
    if cell == "remaining":
        return max((c.percent for c in figure2[subject].contributions
                    if c.knob not in ("spectre_v2", "ssbd", "lazyfp")),
                   default=0.0)
    old, new = figure2["broadwell"], figure2["ice_lake_server"]
    return (old.total_overhead_percent - new.total_overhead_percent
            - max(c.percent for c in old.contributions))


_TABLE5_FIELDS = {"baseline": "baseline", "ibrs": "ibrs_extra",
                  "generic": "generic_extra", "amd": "amd_extra"}


def _table(run, number: int, cpu: str, cell: str):
    if number == 1:
        marks = {table1_slug(mitigation): cells for (_, mitigation), cells
                 in table1_matrix().items()}
        mark = marks[cell][CPU_ORDER.index(cpu)]
        return "x" if mark == "yes" else mark
    if number == 2:
        return getattr(get_cpu(cpu), cell)
    if number == 3:
        return getattr(run.table3[cpu], cell)
    if number == 5:
        return getattr(run.table5[cpu], _TABLE5_FIELDS[cell])
    if cell == "share_of_context_switch":
        return run.table7[cpu] / run.context_switch[cpu]
    if number in (9, 10):
        row = getattr(run, f"table{number}")[cpu]
        label = SCENARIOS[SPEC_COLUMNS.index(cell)].label
        return None if row is None else row[label]["speculated"]
    return getattr(run, f"table{number}")[cpu]


def measured(run, claim_id: str):
    """The value the fast run gives the cell ``claim_id`` names."""
    artifact, subject, *rest = claim_id.split("/")
    cell = rest[0] if rest else None
    if artifact.startswith("table"):
        return _table(run, int(artifact[5:]), subject, cell)
    if artifact in ("fig2", "fig3"):
        return _figure(run, f"figure{artifact[3:]}", subject, cell)
    return {"fig5": _figure5, "s4.4": _section44, "s4.5": _section45,
            "s6.2.2": _section622, "s8": _section8}[artifact](run, subject, cell)


def _value(run, claim):
    if isinstance(claim.predicate, Order):
        return (measured(run, claim.predicate.higher),
                measured(run, claim.predicate.lower))
    return measured(run, claim.id)


@pytest.mark.parametrize("claim", [
    pytest.param(claim, id=claim.id, marks=() if claim.xfail is None else
                 pytest.mark.xfail(reason=claim.xfail, strict=True))
    for claim in CLAIMS.values()])
def test_claim(fast_run, claim):
    value = _value(fast_run, claim)
    assert claim.holds(value), (
        f"{claim.id}: paper {claim.paper!r}, measured {value!r}")


def test_fast_run_is_what_all_fast_writes(fast_run):
    """The fast run's ``all --fast`` wrote the committed ``results/``."""
    committed = Path(__file__).resolve().parents[2] / "results"
    names = sorted(path.name for path in committed.iterdir())
    assert names == sorted(path.name for path in fast_run.outdir.iterdir())
    for name in names:
        assert (fast_run.outdir / name).read_text() == \
            (committed / name).read_text(), name


# --------------------------------------------------------------------------- #
# The predicates, each given a value that must pass and one that must fail
# --------------------------------------------------------------------------- #

def _iv(low, high):
    return Interval((low + high) / 2, low, high)


@pytest.mark.parametrize("predicate,paper,passes,fails", [
    (Exact(1), 100, 101, 102.5),
    (Exact(), "E5-2640v4", "E5-2640v4", "i7-6600U"),
    (NA(), None, None, 0),
    (Band(30), "over 30%", _iv(40, 43), _iv(27, 29)),
    (Band(-2, 2), "within 2%", 1.9, -2.05),
    (Band(8, 20, closed=True), "8 to 20", 20, 21),
    (Mark(), "x", "x", ""),
    (Mark(), True, True, False),
    # Order: separated and overlapping intervals pass, reversed-separated
    # fail; deterministic values compare strictly.
    (Order("a", "b"), "a > b", (_iv(10, 12), _iv(3, 5)),
     (_iv(3, 5), _iv(10, 12))),
    (Order("a", "b"), "a > b", (_iv(7, 9), _iv(8, 10)),
     (_iv(7, 8), _iv(8.5, 10))),
    (Order("a", "b"), "a > b", (10, 9), (9, 9)),
], ids=["exact-number", "exact-text", "na", "band-interval", "band-open",
        "band-closed", "mark", "mark-bool", "order-separated",
        "order-overlapping", "order-deterministic"])
def test_predicates_pass_and_fail(predicate, paper, passes, fails):
    assert predicate.holds(paper, passes)
    assert not predicate.holds(paper, fails)
