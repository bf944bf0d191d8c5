"""Acceptance tests: the paper's headline findings must hold in shape.

These are the reproduction criteria from DESIGN.md — not absolute-number
matches (our substrate is a simulator), but who wins, by roughly what
factor, and where the crossovers fall.
"""

import numpy as np
import pytest

from repro.cpu import CPU_ORDER, Machine, all_cpus, get_cpu
from repro.core import study
from repro.core.study import Settings
from repro.mitigations import MitigationConfig, linux_default
from repro.workloads import lebench
from repro.workloads.parsec import SWAPTIONS, run_workload


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
        assert lebench_overhead("broadwell") > 0.30
        assert lebench_overhead("skylake_client") > 0.25

    def test_new_intel_under_5_percent(self):
        assert lebench_overhead("ice_lake_client") < 0.05
        assert lebench_overhead("ice_lake_server") < 0.05

    def test_cascade_lake_in_between(self):
        cl = lebench_overhead("cascade_lake")
        assert lebench_overhead("ice_lake_server") < cl < \
            lebench_overhead("broadwell")

    def test_amd_never_above_10_percent(self):
        for key in ("zen", "zen2", "zen3"):
            assert lebench_overhead(key) < 0.10, key

    def test_order_of_magnitude_decline(self):
        """The '10x decline' headline."""
        assert lebench_overhead("broadwell") > \
            8 * lebench_overhead("ice_lake_server")

    def test_pti_and_mds_dominate_old_intel(self):
        (result,) = study.figure2([get_cpu("broadwell")], SETTINGS)
        contributions = result.as_dict()
        top_two = sorted(contributions, key=contributions.get)[-2:]
        assert set(top_two) == {"pti", "mds"}

    def test_spectre_v1_invisible_on_lebench(self):
        """'Software mitigations for [V1] had no measurable impact on
        LEBench performance' (section 4.6)."""
        (result,) = study.figure2([get_cpu("broadwell")], SETTINGS)
        v1 = result.contribution_for("spectre_v1")
        assert v1 is None or abs(v1.percent) < 2.0


class TestFigure3Shape:
    """'Overhead on Octane 2 has remained in the range of 15% to 25%'."""

    @pytest.mark.parametrize("key", CPU_ORDER)
    def test_every_cpu_in_the_15_to_25_band(self, key):
        (result,) = study.figure3([get_cpu(key)], SETTINGS)
        assert 13.0 < result.total_overhead_percent < 27.0

    def test_js_mitigations_are_about_half_the_overhead(self):
        (result,) = study.figure3([get_cpu("cascade_lake")], SETTINGS)
        js = sum(c.percent for c in result.contributions
                 if c.knob.startswith("js_"))
        assert 0.3 < js / result.total_overhead_percent < 0.8

    def test_masking_about_4_object_about_6_percent(self):
        (result,) = study.figure3([get_cpu("ice_lake_server")], SETTINGS)
        masking = result.contribution_for("js_index_masking").percent
        guards = result.contribution_for("js_object_guards").percent
        assert 2.0 < masking < 6.0
        assert 4.0 < guards < 9.0
        assert guards > masking


class TestFigure5Shape:
    """SSBD: up to ~34%, trending worse, swaptions worst."""

    def test_peak_at_zen3_swaptions(self):
        cpu = get_cpu("zen3")
        base = run_workload(Machine(cpu, seed=1), linux_default(cpu),
                            SWAPTIONS, iterations=16, warmup=4)
        ssbd = run_workload(Machine(cpu, seed=1), linux_default(cpu),
                            SWAPTIONS, force_ssbd=True, iterations=16,
                            warmup=4)
        assert 0.28 < ssbd / base - 1 < 0.40

    def test_every_cpu_pays_something(self):
        results = study.figure5(all_cpus(),
                                workloads=[SWAPTIONS], settings=SETTINGS)
        for r in results:
            assert r.overhead_percent > 5.0, r.cpu


class TestQuietWorkloads:
    """Sections 4.4/4.5: VMs and compute workloads show ~no overhead."""

    def test_parsec_default_under_2_percent(self):
        results = study.parsec_default_overheads(all_cpus(), settings=SETTINGS)
        assert len(results) == 24  # 8 CPUs x 3 PARSEC workloads
        for r in results:
            assert abs(r.overhead_percent) < 2.0

    def test_vm_lebench_within_3_percent(self):
        for r in study.vm_lebench_overheads(
                [get_cpu("broadwell"), get_cpu("cascade_lake")], SETTINGS):
            assert abs(r.overhead_percent) < 3.0

    def test_lfs_median_under_2_percent(self):
        results = study.lfs_overheads(
            [get_cpu("broadwell"), get_cpu("cascade_lake"), get_cpu("zen")],
            settings=SETTINGS)
        values = sorted(r.overhead_percent for r in results)
        assert values[len(values) // 2] < 2.0


class TestSummaryFindings:
    """Section 8's three answers, as testable claims."""

    def test_remaining_overhead_is_v1_v2_ssbd_on_new_parts(self):
        (result,) = study.figure2([get_cpu("ice_lake_server")], SETTINGS)
        named = {c.knob for c in result.contributions if c.percent > 1.0}
        assert named <= {"spectre_v2", "ssbd", "lazyfp"}

    def test_replacing_old_cpus_beats_any_single_knob(self):
        """'A simple way to reduce overheads significantly ... is to
        replace older CPUs with newer models.'"""
        old = lebench_overhead("broadwell")
        new = lebench_overhead("ice_lake_server")
        (result,) = study.figure2([get_cpu("broadwell")], SETTINGS)
        best_knob = max(c.percent for c in result.contributions)
        assert (old - new) * 100 > best_knob
