"""Statistics: CIs, adaptive sampling, geometric mean, noise."""

import itertools
import math
import zlib

import numpy as np
import pytest

from repro.core.stats import (
    Measurement,
    NoisySampler,
    adaptive_measure,
    confidence_interval,
    derive_seed,
    geometric_mean,
    overhead_percent,
    score_slowdown_percent,
    suite_geometric_mean,
)
from repro.errors import StatisticsError


def test_ci_of_constant_samples_is_tight():
    m = confidence_interval([5.0] * 10)
    assert m.mean == 5.0
    assert m.ci_half_width == 0.0
    assert m.samples == 10


def test_ci_of_empty_raises():
    with pytest.raises(StatisticsError):
        confidence_interval([])


def test_ci_of_single_sample_is_infinite():
    m = confidence_interval([3.0])
    assert math.isinf(m.ci_half_width)


def test_ci_shrinks_with_more_samples():
    rng = np.random.default_rng(0)
    small = confidence_interval(list(rng.normal(10, 1, 10)))
    large = confidence_interval(list(rng.normal(10, 1, 1000)))
    assert large.ci_half_width < small.ci_half_width


def test_ci_contains_true_mean_usually():
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(100):
        m = confidence_interval(list(rng.normal(50, 5, 30)))
        if m.ci_low <= 50 <= m.ci_high:
            hits += 1
    assert hits >= 85  # 95% nominal, allow slack


def test_overlap_detection():
    a = Measurement(10.0, 1.0, 5)
    b = Measurement(10.5, 1.0, 5)
    c = Measurement(20.0, 1.0, 5)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)


def test_relative_error():
    assert Measurement(100.0, 2.0, 5).relative_error == pytest.approx(0.02)
    assert math.isinf(Measurement(0.0, 1.0, 5).relative_error)


def test_adaptive_measure_stops_when_converged():
    rng = np.random.default_rng(2)
    m = adaptive_measure(lambda: float(rng.normal(100, 1)),
                         rel_tol=0.01, max_samples=200)
    assert m.mean == pytest.approx(100, rel=0.05)
    assert m.samples < 200


def test_adaptive_measure_caps_at_max_samples():
    rng = np.random.default_rng(3)
    m = adaptive_measure(lambda: float(rng.normal(100, 50)),
                         rel_tol=0.0001, max_samples=10)
    assert m.samples == 10


def test_adaptive_measure_rejects_tiny_min_samples():
    with pytest.raises(ValueError):
        adaptive_measure(lambda: 1.0, min_samples=1)


def test_adaptive_measure_rejects_inverted_sample_bounds():
    with pytest.raises(ValueError, match="max_samples"):
        adaptive_measure(lambda: 1.0, min_samples=10, max_samples=5)


def test_adaptive_measure_rejects_non_positive_rel_tol():
    with pytest.raises(ValueError, match="rel_tol"):
        adaptive_measure(lambda: 1.0, rel_tol=0.0)
    with pytest.raises(ValueError, match="rel_tol"):
        adaptive_measure(lambda: 1.0, rel_tol=-0.01)


def test_geometric_mean_known_value():
    assert geometric_mean([1, 100]) == pytest.approx(10.0)
    assert geometric_mean([7]) == pytest.approx(7.0)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(StatisticsError):
        geometric_mean([])
    with pytest.raises(StatisticsError):
        geometric_mean([1.0, -2.0])


def test_suite_geometric_mean_matches_plain_geomean():
    suite = {"getpid": 2.0, "fork": 8.0}
    assert suite_geometric_mean(suite) == pytest.approx(4.0)


def test_suite_geometric_mean_names_the_offending_case():
    suite = {"getpid": 2.0, "mmap": -1.0}
    with pytest.raises(StatisticsError, match=r"case 'mmap' = -1\.0"):
        suite_geometric_mean(suite)


def test_suite_geometric_mean_carries_caller_context():
    with pytest.raises(StatisticsError,
                       match=r"case 'send' .* \[lebench on zen2\]"):
        suite_geometric_mean({"send": 0.0}, context="lebench on zen2")
    with pytest.raises(StatisticsError, match=r"empty suite \[octane\]"):
        suite_geometric_mean({}, context="octane")


def test_suite_geometric_mean_rejects_non_finite():
    with pytest.raises(StatisticsError, match="'bad'"):
        suite_geometric_mean({"ok": 1.0, "bad": math.nan})


def test_derive_seed_is_stable():
    assert derive_seed(7, "figure2", "zen2") == derive_seed(7, "figure2",
                                                            "zen2")


def test_derive_seed_distinguishes_parts_and_base():
    seeds = {
        derive_seed(base, driver, cpu)
        for base in (7, 8)
        for driver in ("figure2", "figure5")
        for cpu in ("zen2", "zen3")
    }
    assert len(seeds) == 8


def test_derive_seed_is_a_valid_rng_seed():
    for base in (0, 7, 2**31 - 1, 2**40):
        seed = derive_seed(base, "a", "b")
        assert 0 <= seed < 2**31
        np.random.default_rng(seed)  # accepted by numpy


def test_derive_seed_rejects_slash_in_parts():
    """("a/b", "c") and ("a", "b/c") would join to the same key and
    silently correlate two cells' noise streams — rejected instead."""
    with pytest.raises(ValueError, match="separator"):
        derive_seed(7, "a/b", "c")
    with pytest.raises(ValueError, match="separator"):
        derive_seed(7, "a", "b/c")


def test_derive_seed_rejection_preserves_existing_keys():
    """The fix rejects rather than escapes: every legal key — and hence
    every cached cell and recorded baseline — derives the same seed."""
    assert derive_seed(7, "figure2", "zen2") == \
        (7 + zlib.crc32(b"figure2/zen2")) & 0x7FFF_FFFF


def test_overhead_percent():
    assert overhead_percent(130.0, 100.0) == pytest.approx(30.0)
    assert overhead_percent(100.0, 100.0) == 0.0
    with pytest.raises(StatisticsError):
        overhead_percent(1.0, 0.0)


def test_score_slowdown_percent():
    assert score_slowdown_percent(80.0, 100.0) == pytest.approx(20.0)
    with pytest.raises(StatisticsError):
        score_slowdown_percent(1.0, 0.0)


class TestNoisySampler:
    def test_zero_sigma_is_exact(self):
        sampler = NoisySampler(lambda: 42.0, sigma=0.0)
        assert sampler() == 42.0

    def test_seeded_reproducibility(self):
        a = NoisySampler(lambda: 100.0, sigma=0.05, seed=9)
        b = NoisySampler(lambda: 100.0, sigma=0.05, seed=9)
        assert [a() for _ in range(5)] == [b() for _ in range(5)]

    def test_noise_is_a_couple_percent(self):
        sampler = NoisySampler(lambda: 100.0, sigma=0.015, seed=0)
        values = [sampler() for _ in range(500)]
        assert np.std(values) / np.mean(values) == pytest.approx(0.015, rel=0.3)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoisySampler(lambda: 1.0, sigma=-0.1)

    def test_cycles_through_replica_values(self):
        """Sampling over seeded replicas: sample ``j`` is replica
        ``j % n``'s value times the ``j``-th draw of one noise stream."""
        sampler = NoisySampler(itertools.cycle([1.0, 2.0, 3.0]).__next__,
                               sigma=0.0)
        assert [sampler() for _ in range(5)] == [1.0, 2.0, 3.0, 1.0, 2.0]
        noisy = NoisySampler(itertools.cycle([10.0, 20.0]).__next__,
                             sigma=0.02, seed=5)
        draws = np.random.default_rng(5).normal(0.0, 0.02, size=5)
        assert [noisy() for _ in range(5)] == [
            value * float(np.exp(x))
            for value, x in zip(itertools.cycle([10.0, 20.0]), draws)]
