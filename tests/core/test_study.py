"""Study drivers produce paper-shaped results (spot checks; the full
acceptance bands live in tests/integration/test_paper_results.py)."""

import pytest

from repro.cpu import get_cpu
from repro.core import study
from repro.core.study import Settings


@pytest.fixture(scope="module")
def settings():
    return Settings.fast()


def test_settings_fast_is_cheaper_than_default():
    fast, full = Settings.fast(), Settings()
    assert fast.iterations < full.iterations
    assert fast.max_samples < full.max_samples


def test_figure2_single_cpu(settings):
    (result,) = study.figure2([get_cpu("broadwell")], settings)
    assert result.cpu == "broadwell"
    assert result.workload == "lebench"
    assert result.total_overhead_percent > 20
    assert result.contribution_for("pti").percent > 5
    assert result.contribution_for("mds").percent > 5


def test_figure2_skips_irrelevant_knobs_on_amd(settings):
    (result,) = study.figure2([get_cpu("zen2")], settings)
    assert result.contribution_for("pti") is None
    assert result.contribution_for("mds") is None
    assert result.contribution_for("spectre_v2") is not None


def test_figure3_single_cpu(settings):
    (result,) = study.figure3([get_cpu("ice_lake_server")], settings)
    assert result.metric == "score"
    assert 10 < result.total_overhead_percent < 30
    assert result.contribution_for("js_object_guards").percent > \
        result.contribution_for("js_index_masking").percent


def test_figure5_ordering(settings):
    from repro.workloads.parsec import SUITE
    results = study.figure5([get_cpu("zen3")], settings=settings)
    by_name = {r.workload: r.overhead_percent for r in results}
    assert by_name["swaptions"] > by_name["bodytrack"] > by_name["facesim"]
    assert by_name["swaptions"] > 25


def test_parsec_default_within_noise(settings):
    # Band covers ~3 sigma of the paired noise at fast-settings sample
    # counts; the arms' streams are decorrelated (tag-derived seeds), so
    # their errors no longer partially cancel.
    results = study.parsec_default_overheads([get_cpu("zen2")],
                                             settings=settings)
    for r in results:
        assert abs(r.overhead_percent) < 2.5


def test_vm_lebench_band(settings):
    (result,) = study.vm_lebench_overheads([get_cpu("skylake_client")],
                                           settings)
    assert abs(result.overhead_percent) < 3.0


def test_lfs_band(settings):
    results = study.lfs_overheads([get_cpu("cascade_lake")],
                                  settings=settings)
    for r in results:
        assert r.overhead_percent < 3.0


def test_paired_overhead_significance_fields(settings):
    (result,) = study.vm_lebench_overheads([get_cpu("zen")], settings)
    assert result.baseline.samples >= 2
    assert result.treated.samples >= 2


def test_paired_noise_seeds_are_tag_derived(settings):
    """Regression: the two arms' noise streams must come from
    derive_seed(seed, "base") / derive_seed(seed, "treat"), not the
    adjacent raw seeds seed/seed+1 — a neighboring cell's stream can sit
    at seed+1 and would correlate this cell's treated-arm errors."""
    from repro.core.stats import NoisySampler, adaptive_measure, derive_seed

    seed = 1234
    result = study._paired(get_cpu("zen"), "unit",
                           lambda machine_seed: 100.0,
                           lambda machine_seed: 130.0,
                           settings, seed=seed)

    def manual(value, tag):
        sampler = NoisySampler(lambda: value, settings.sigma,
                               derive_seed(seed, tag))
        return adaptive_measure(sampler, rel_tol=settings.rel_tol,
                                max_samples=settings.max_samples)

    assert result.baseline == manual(100.0, "base")
    assert result.treated == manual(130.0, "treat")


def test_sweep_builds_cpu_major_cells_from_the_driver_table(monkeypatch,
                                                            settings):
    import dataclasses
    from repro.workloads.parsec import SUITE
    real = study.DRIVERS["figure5"]
    monkeypatch.setitem(study.DRIVERS, "figure5", dataclasses.replace(
        real, run_cell=lambda spec: (spec.cpu, spec.workload)))
    cpus = [get_cpu("zen"), get_cpu("zen3")]
    assert study.figure5(cpus, settings=settings) == [
        (cpu.key, workload.name) for cpu in cpus for workload in SUITE]
    assert study.figure5(cpus, workloads=SUITE[1:2], settings=settings) == [
        (cpu.key, SUITE[1].name) for cpu in cpus]


def test_a_fixed_workload_driver_takes_no_workloads(settings):
    from repro.workloads.parsec import SWAPTIONS
    with pytest.raises(ValueError, match="takes no workloads"):
        study.sweep("figure2", [get_cpu("zen")], settings,
                    workloads=[SWAPTIONS])
