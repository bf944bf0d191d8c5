"""The parallel study executor: determinism, caching, interrupted runs.

The acceptance criteria from the engine's design: parallel runs are
byte-identical to serial runs, warm-cache reruns execute zero simulation
cells, and rerunning an interrupted run simulates only the cells it had
not finished.
"""

import json

import pytest

from repro.core import export, study
from repro.core.executor import (
    CellSpec,
    ResultCache,
    StudyExecutor,
    decode_result,
    encode_result,
)
from repro.core.study import Settings
from repro.cpu import get_cpu
from repro.errors import ExecutorError
from repro.obs import MetricsRegistry

SETTINGS = Settings.fast()


def _stable_parts(text):
    payload = json.loads(text)
    provenance = dict(payload["provenance"])
    provenance.pop("created_at")
    provenance.pop("wall_time_s")
    return payload["results"], provenance


# --------------------------------------------------------------------------- #
# Cell specs and seeds
# --------------------------------------------------------------------------- #

class TestCellSpec:
    def test_specs_are_hashable_and_stable(self):
        a = CellSpec("figure2", "zen2", "lebench", SETTINGS)
        b = CellSpec("figure2", "zen2", "lebench", SETTINGS)
        assert a == b and hash(a) == hash(b)
        assert a.key() == b.key() and a.digest() == b.digest()

    def test_round_trips_through_dict(self):
        spec = CellSpec("figure5", "zen3", "swaptions", SETTINGS)
        assert CellSpec.from_dict(spec.to_dict()) == spec

    def test_seed_is_per_cell(self):
        """The determinism bugfix: distinct cells never share a noise
        seed, even at the same base ``settings.seed``."""
        seeds = {
            CellSpec(driver, cpu, workload, SETTINGS).seed()
            for driver in ("figure2", "figure5", "parsec_default")
            for cpu in ("zen2", "zen3", "broadwell")
            for workload in ("lebench", "swaptions")
        }
        assert len(seeds) == 18  # all distinct

    def test_seed_is_stable_across_processes(self):
        spec = CellSpec("figure2", "zen2", "lebench", SETTINGS)
        assert spec.seed() == CellSpec.from_dict(spec.to_dict()).seed()

    def test_digest_depends_on_settings(self):
        a = CellSpec("figure2", "zen2", "lebench", SETTINGS)
        b = CellSpec("figure2", "zen2", "lebench", Settings())
        assert a.digest() != b.digest()


class TestResultCodec:
    def test_attribution_round_trip_is_exact(self):
        (result,) = study.figure2([get_cpu("zen2")], SETTINGS)
        back = decode_result("attribution", json.loads(json.dumps(
            encode_result("attribution", result))))
        assert back.baseline == result.baseline
        assert back.default == result.default
        assert back.contributions == result.contributions
        assert back.total_overhead_percent == result.total_overhead_percent

    def test_paired_round_trip_is_exact(self):
        (result,) = study.vm_lebench_overheads([get_cpu("zen")], SETTINGS)
        back = decode_result("paired", json.loads(json.dumps(
            encode_result("paired", result))))
        assert back == result


# --------------------------------------------------------------------------- #
# Parallel == serial, bit for bit
# --------------------------------------------------------------------------- #

class TestDeterminism:
    def test_parallel_figure2_export_is_byte_identical_to_serial(self):
        cpus = [get_cpu("zen2"), get_cpu("broadwell")]
        serial = export.attributions_to_json(
            study.figure2(cpus, SETTINGS, executor=StudyExecutor(jobs=1)))
        parallel = export.attributions_to_json(
            study.figure2(cpus, SETTINGS, executor=StudyExecutor(jobs=4)))
        assert _stable_parts(serial) == _stable_parts(parallel)

    def test_parallel_figure5_matches_serial(self):
        cpus = [get_cpu("zen3")]
        serial = study.figure5(cpus, settings=SETTINGS,
                               executor=StudyExecutor(jobs=1))
        parallel = study.figure5(cpus, settings=SETTINGS,
                                 executor=StudyExecutor(jobs=3))
        assert serial == parallel  # PairedOverhead is a frozen dataclass

    def test_results_come_back_in_enumeration_order(self):
        cpus = [get_cpu(k) for k in ("zen3", "zen2", "broadwell")]
        results = study.figure2(cpus, SETTINGS, executor=StudyExecutor(jobs=3))
        assert [r.cpu for r in results] == ["zen3", "zen2", "broadwell"]


# --------------------------------------------------------------------------- #
# The persistent cache
# --------------------------------------------------------------------------- #

class TestCache:
    def test_warm_cache_executes_zero_cells(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = StudyExecutor(jobs=1, cache_dir=cache,
                             metrics=MetricsRegistry())
        first = study.figure5([get_cpu("zen3")], settings=SETTINGS,
                              executor=cold)
        assert cold.metrics.counter("executor.cells.executed").value == 3
        assert cold.metrics.counter("executor.cells.cache_hit").value == 0

        warm = StudyExecutor(jobs=1, cache_dir=cache,
                             metrics=MetricsRegistry())
        second = study.figure5([get_cpu("zen3")], settings=SETTINGS,
                               executor=warm)
        assert warm.metrics.counter("executor.cells.cache_hit").value == 3
        assert "executor.cells.executed" not in warm.metrics
        assert first == second  # cached results decode bit-identical

    def test_cache_serves_parallel_runs(self, tmp_path):
        cache = str(tmp_path / "cache")
        study.figure5([get_cpu("zen3")], settings=SETTINGS,
                      executor=StudyExecutor(jobs=3, cache_dir=cache))
        warm = StudyExecutor(jobs=3, cache_dir=cache)
        study.figure5([get_cpu("zen3")], settings=SETTINGS, executor=warm)
        assert warm.stats.cache_hits == 3 and warm.stats.executed == 0

    def test_different_settings_miss(self, tmp_path):
        cache = str(tmp_path / "cache")
        study.vm_lebench_overheads([get_cpu("zen")], SETTINGS,
                                   executor=StudyExecutor(cache_dir=cache))
        other = StudyExecutor(cache_dir=cache)
        study.vm_lebench_overheads(
            [get_cpu("zen")], Settings(iterations=8, warmup=2,
                                       max_samples=20, rel_tol=0.01),
            executor=other)
        assert other.stats.cache_hits == 0 and other.stats.executed == 1

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ex = StudyExecutor(cache_dir=cache_dir)
        study.vm_lebench_overheads([get_cpu("zen")], SETTINGS, executor=ex)
        spec = CellSpec("vm_lebench", "zen", "vm_lebench", SETTINGS)
        path = ResultCache(cache_dir)._path(spec.digest())
        with open(path, "w") as f:
            f.write("{ not json")
        again = StudyExecutor(cache_dir=cache_dir)
        study.vm_lebench_overheads([get_cpu("zen")], SETTINGS, executor=again)
        assert again.stats.executed == 1


# --------------------------------------------------------------------------- #
# Interrupted runs: the cell cache is the checkpoint
# --------------------------------------------------------------------------- #

def _failing_runner(real_runner, fail_cpu):
    def runner(spec):
        if spec.cpu == fail_cpu:
            raise RuntimeError(f"injected failure on {fail_cpu}")
        return real_runner(spec)
    return runner


def _interrupt(monkeypatch, cache_dir, cpus, fail_cpu):
    """Run vm_lebench over ``cpus`` until the cell on ``fail_cpu`` fails,
    then restore the real cell runner."""
    real = study.CELL_RUNNERS["vm_lebench"]
    monkeypatch.setitem(study.CELL_RUNNERS, "vm_lebench",
                        _failing_runner(real, fail_cpu))
    with pytest.raises(ExecutorError, match=f"vm_lebench/{fail_cpu}"):
        study.vm_lebench_overheads(
            cpus, SETTINGS, executor=StudyExecutor(cache_dir=cache_dir))
    monkeypatch.setitem(study.CELL_RUNNERS, "vm_lebench", real)


class TestResume:
    def test_interrupted_run_resumes_from_checkpoint(self, tmp_path,
                                                     monkeypatch):
        """Each cell is cached as it completes, so a rerun serves the
        finished cells from the cache and simulates only the failed one."""
        cache_dir = str(tmp_path / "cache")
        cpus = [get_cpu("zen"), get_cpu("zen2"), get_cpu("zen3")]
        _interrupt(monkeypatch, cache_dir, cpus, "zen3")
        rerun = StudyExecutor(cache_dir=cache_dir)
        results = study.vm_lebench_overheads(cpus, SETTINGS, executor=rerun)
        assert rerun.stats.cache_hits == 2
        assert rerun.stats.executed == 1
        assert [r.cpu for r in results] == ["zen", "zen2", "zen3"]

    def test_resumed_results_match_a_straight_run(self, tmp_path,
                                                  monkeypatch):
        cache_dir = str(tmp_path / "cache")
        cpus = [get_cpu("zen"), get_cpu("zen2")]
        straight = study.vm_lebench_overheads(cpus, SETTINGS,
                                              executor=StudyExecutor())
        _interrupt(monkeypatch, cache_dir, cpus, "zen2")
        rerun = StudyExecutor(cache_dir=cache_dir)
        results = study.vm_lebench_overheads(cpus, SETTINGS, executor=rerun)
        assert rerun.stats.cache_hits == 1 and rerun.stats.executed == 1
        assert results == straight


# --------------------------------------------------------------------------- #
# Failure attribution
# --------------------------------------------------------------------------- #

class TestFailures:
    def test_inline_failure_names_the_cell(self, monkeypatch):
        real = study.CELL_RUNNERS["figure2"]
        monkeypatch.setitem(study.CELL_RUNNERS, "figure2",
                            _failing_runner(real, "zen2"))
        with pytest.raises(ExecutorError, match="figure2/zen2/lebench"):
            study.figure2([get_cpu("zen2")], SETTINGS)

    def test_pool_failure_names_the_cell(self, monkeypatch):
        real = study.CELL_RUNNERS["figure2"]
        monkeypatch.setitem(study.CELL_RUNNERS, "figure2",
                            _failing_runner(real, "zen2"))
        with pytest.raises(ExecutorError, match="figure2/zen2/lebench"):
            study.figure2([get_cpu("zen2"), get_cpu("zen3")], SETTINGS,
                          executor=StudyExecutor(jobs=2))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            StudyExecutor(jobs=0)

    def test_custom_workload_objects_are_rejected(self):
        from repro.workloads.parsec import SWAPTIONS
        import dataclasses as dc
        custom = dc.replace(SWAPTIONS, store_load_pairs=999)
        with pytest.raises(ValueError, match="cell-addressed"):
            study.figure5([get_cpu("zen3")], workloads=[custom],
                          settings=SETTINGS)


# --------------------------------------------------------------------------- #
# Worker observability flows back to the parent
# --------------------------------------------------------------------------- #

class TestWorkerObservability:
    def test_worker_spans_merge_into_parent_tracer(self):
        from repro import obs
        tracer = obs.SpanTracer()
        with obs.use_observers(tracer):
            study.figure5([get_cpu("zen3")], settings=SETTINGS,
                          executor=StudyExecutor(jobs=3))
        spans = tracer.find("study.figure5.zen3")
        assert len(spans) == 3  # one per PARSEC workload cell
        assert all(span.cycles > 0 for span in spans)
        assert tracer.total_cycles() >= tracer.attributed_cycles() > 0
        # Worker metrics (span histograms) merged into the parent registry.
        hist = tracer.metrics.get("span.study.figure5.zen3.cycles")
        assert hist is not None and hist.count == 3

    def test_untraced_parallel_run_collects_nothing(self):
        from repro.obs.spans import current_tracer
        assert not current_tracer().enabled
        ex = StudyExecutor(jobs=2)
        study.figure5([get_cpu("zen3")], settings=SETTINGS, executor=ex)
        assert "span.study.figure5.zen3.cycles" not in ex.metrics


# --------------------------------------------------------------------------- #
# Cache outcome accounting: hit / miss / stale
# --------------------------------------------------------------------------- #

class TestCacheOutcomes:
    def test_cold_run_counts_every_cell_as_a_miss(self, tmp_path):
        ex = StudyExecutor(cache_dir=str(tmp_path / "cache"),
                           metrics=MetricsRegistry())
        study.figure5([get_cpu("zen3")], settings=SETTINGS, executor=ex)
        assert ex.stats.cache_misses == 3
        assert ex.stats.cache_stale == 0
        assert ex.metrics.counter("executor.cells.cache_miss").value == 3

    def test_warm_run_counts_neither_miss_nor_stale(self, tmp_path):
        cache = str(tmp_path / "cache")
        study.figure5([get_cpu("zen3")], settings=SETTINGS,
                      executor=StudyExecutor(cache_dir=cache))
        warm = StudyExecutor(cache_dir=cache, metrics=MetricsRegistry())
        study.figure5([get_cpu("zen3")], settings=SETTINGS, executor=warm)
        assert warm.stats.cache_hits == 3
        assert warm.stats.cache_misses == 0 and warm.stats.cache_stale == 0
        assert "executor.cells.cache_miss" not in warm.metrics

    def test_corrupt_entry_is_stale_not_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        study.vm_lebench_overheads([get_cpu("zen")], SETTINGS,
                                   executor=StudyExecutor(cache_dir=cache_dir))
        spec = CellSpec("vm_lebench", "zen", "vm_lebench", SETTINGS)
        cache = ResultCache(cache_dir)
        with open(cache._path(spec.digest()), "w") as f:
            f.write("{ not json")
        again = StudyExecutor(cache_dir=cache_dir, metrics=MetricsRegistry())
        study.vm_lebench_overheads([get_cpu("zen")], SETTINGS, executor=again)
        assert again.stats.cache_stale == 1
        assert again.stats.cache_misses == 0
        assert again.metrics.counter("executor.cells.cache_stale").value == 1

    def test_lookup_classifies_hit_miss_stale(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = CellSpec("vm_lebench", "zen", "vm_lebench", SETTINGS)
        result, outcome = cache.lookup(spec, "paired")
        assert result is None and outcome == ResultCache.MISS
        study.vm_lebench_overheads(
            [get_cpu("zen")], SETTINGS,
            executor=StudyExecutor(cache_dir=cache.root))
        result, outcome = cache.lookup(spec, "paired")
        assert result is not None and outcome == ResultCache.HIT
        # A kind mismatch means the record cannot satisfy the request.
        result, outcome = cache.lookup(spec, "attribution")
        assert result is None and outcome == ResultCache.STALE

    def test_summary_breaks_out_misses_and_stale(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ex = StudyExecutor(cache_dir=cache_dir)
        study.figure5([get_cpu("zen3")], settings=SETTINGS, executor=ex)
        summary = ex.stats.summary()
        assert "3 cells: 0 cache hits, 3 executed" in summary
        assert "3 misses" in summary and "0 stale" in summary
