"""Acceptance tests: the paper's headline findings must hold in shape.

These are the reproduction criteria from DESIGN.md — not absolute-number
matches (our substrate is a simulator), but who wins, by roughly what
factor, and where the crossovers fall.  Each check is a claim of
``tests/paper/claims.py``, measured here at this module's own settings.
"""

import numpy as np
import pytest

from repro.cpu import CPU_ORDER, Machine, all_cpus, get_cpu
from repro.core import study
from repro.core.study import Settings
from repro.mitigations import MitigationConfig, linux_default
from repro.workloads import lebench
from repro.workloads.parsec import SWAPTIONS, run_workload

from ..paper.claims import CLAIMS


SETTINGS = Settings(iterations=14, warmup=4, max_samples=48, rel_tol=0.004)


def lebench_overhead(cpu_key):
    cpu = get_cpu(cpu_key)
    off = lebench.run_suite(Machine(cpu, seed=1), MitigationConfig.all_off(),
                            iterations=12, warmup=3)
    on = lebench.run_suite(Machine(cpu, seed=1), linux_default(cpu),
                           iterations=12, warmup=3)
    return float(np.exp(np.mean([np.log(on[n] / off[n]) for n in off]))) - 1


class TestFigure2Shape:
    """'Overheads on LEBench have gone from over 30% on older Intel CPUs
    to under 3% on the latest models' (section 4.6)."""

    def test_old_intel_over_30_percent(self):
        for key in ("broadwell", "skylake_client"):
            assert CLAIMS[f"fig2/{key}/total"].holds(
                100 * lebench_overhead(key)), key

    def test_new_intel_under_5_percent(self):
        for key in ("ice_lake_client", "ice_lake_server"):
            assert CLAIMS[f"fig2/{key}/total"].holds(
                100 * lebench_overhead(key)), key

    def test_cascade_lake_in_between(self):
        cl = lebench_overhead("cascade_lake")
        assert CLAIMS["fig2/broadwell>cascade_lake/total"].holds(
            (lebench_overhead("broadwell"), cl))
        assert CLAIMS["fig2/cascade_lake>ice_lake_server/total"].holds(
            (cl, lebench_overhead("ice_lake_server")))

    def test_amd_never_above_10_percent(self):
        for key in ("zen", "zen2", "zen3"):
            assert CLAIMS[f"fig2/{key}/total"].holds(
                100 * lebench_overhead(key)), key

    def test_order_of_magnitude_decline(self):
        """The '10x decline' headline."""
        assert CLAIMS["fig2/decline"].holds(
            lebench_overhead("broadwell") / lebench_overhead("ice_lake_server"))

    def test_pti_and_mds_dominate_old_intel(self):
        (result,) = study.figure2([get_cpu("broadwell")], SETTINGS)
        contributions = result.as_dict()
        top_two = sorted(contributions, key=contributions.get)[-2:]
        assert CLAIMS["fig2/broadwell/top_two"].holds(tuple(sorted(top_two)))

    def test_spectre_v1_invisible_on_lebench(self):
        """'Software mitigations for [V1] had no measurable impact on
        LEBench performance' (section 4.6)."""
        (result,) = study.figure2([get_cpu("broadwell")], SETTINGS)
        v1 = result.contribution_for("spectre_v1")
        assert v1 is None or CLAIMS["fig2/broadwell/spectre_v1"].holds(
            v1.percent)


class TestFigure3Shape:
    """'Overhead on Octane 2 has remained in the range of 15% to 25%'."""

    @pytest.mark.parametrize("key", CPU_ORDER)
    def test_every_cpu_in_the_15_to_25_band(self, key):
        (result,) = study.figure3([get_cpu(key)], SETTINGS)
        assert CLAIMS[f"fig3/{key}/total"].holds(result.total_overhead_percent)

    def test_js_mitigations_are_about_half_the_overhead(self):
        (result,) = study.figure3([get_cpu("cascade_lake")], SETTINGS)
        js = sum(c.percent for c in result.contributions
                 if c.knob.startswith("js_"))
        assert CLAIMS["fig3/cascade_lake/js_share"].holds(
            js / result.total_overhead_percent)

    def test_masking_about_4_object_about_6_percent(self):
        (result,) = study.figure3([get_cpu("ice_lake_server")], SETTINGS)
        masking = result.contribution_for("js_index_masking").percent
        guards = result.contribution_for("js_object_guards").percent
        assert CLAIMS["fig3/ice_lake_server/js_index_masking"].holds(masking)
        assert CLAIMS["fig3/ice_lake_server/js_object_guards"].holds(guards)
        assert CLAIMS["fig3/ice_lake_server/js_object_guards>js_index_masking"
                      ].holds((guards, masking))


class TestFigure5Shape:
    """SSBD: up to ~34%, trending worse, swaptions worst."""

    def test_peak_at_zen3_swaptions(self):
        cpu = get_cpu("zen3")
        base = run_workload(Machine(cpu, seed=1), linux_default(cpu),
                            SWAPTIONS, iterations=16, warmup=4)
        ssbd = run_workload(Machine(cpu, seed=1), linux_default(cpu),
                            SWAPTIONS, force_ssbd=True, iterations=16,
                            warmup=4)
        assert CLAIMS["fig5/zen3/swaptions"].holds(100 * (ssbd / base - 1))

    def test_every_cpu_pays_something(self):
        results = study.figure5(all_cpus(),
                                workloads=[SWAPTIONS], settings=SETTINGS)
        for r in results:
            assert CLAIMS[f"fig5/{r.cpu}/swaptions"].holds(
                r.overhead_percent), r.cpu


class TestQuietWorkloads:
    """Sections 4.4/4.5: VMs and compute workloads show ~no overhead."""

    def test_parsec_default_under_2_percent(self):
        results = study.parsec_default_overheads(all_cpus(), settings=SETTINGS)
        assert len(results) == 24  # 8 CPUs x 3 PARSEC workloads
        for r in results:
            assert CLAIMS[f"s4.5/{r.cpu}/{r.workload}"].holds(
                r.overhead_percent), (r.cpu, r.workload)

    def test_vm_lebench_within_3_percent(self):
        for r in study.vm_lebench_overheads(
                [get_cpu("broadwell"), get_cpu("cascade_lake")], SETTINGS):
            assert CLAIMS[f"s4.4/{r.cpu}/vm_lebench"].holds(r.overhead_percent)

    def test_lfs_median_under_2_percent(self):
        results = study.lfs_overheads(
            [get_cpu("broadwell"), get_cpu("cascade_lake"), get_cpu("zen")],
            settings=SETTINGS)
        values = sorted(r.overhead_percent for r in results)
        assert CLAIMS["s4.4/lfs_median"].holds(values[len(values) // 2])


class TestSummaryFindings:
    """Section 8's three answers, as testable claims."""

    def test_remaining_overhead_is_v1_v2_ssbd_on_new_parts(self):
        (result,) = study.figure2([get_cpu("ice_lake_server")], SETTINGS)
        others = [c.percent for c in result.contributions
                  if c.knob not in ("spectre_v2", "ssbd", "lazyfp")]
        assert CLAIMS["s8/ice_lake_server/remaining"].holds(
            max(others, default=0.0))

    def test_replacing_old_cpus_beats_any_single_knob(self):
        """'A simple way to reduce overheads significantly ... is to
        replace older CPUs with newer models.'"""
        old = lebench_overhead("broadwell")
        new = lebench_overhead("ice_lake_server")
        (result,) = study.figure2([get_cpu("broadwell")], SETTINGS)
        best_knob = max(c.percent for c in result.contributions)
        assert CLAIMS["s8/broadwell/upgrade_over_best_knob"].holds(
            (old - new) * 100 - best_knob)
