"""Sweeps: interpolation, crossovers, and the two canned curves."""

import pytest

from repro.core.sweeps import (
    SweepResult,
    find_crossover,
    overhead_vs_operation_size,
    ssbd_overhead_vs_forwarding_density,
    sweep,
)
from repro.cpu import get_cpu
from repro.mitigations import linux_default


def test_sweep_result_validates_lengths():
    with pytest.raises(ValueError):
        SweepResult("x", (1.0, 2.0), (1.0,))


def test_sweep_result_rejects_empty_grid():
    with pytest.raises(ValueError, match="at least one point"):
        SweepResult("x", (), ())


def test_sweep_result_rejects_duplicate_xs():
    # A duplicate x makes interpolate() divide by zero and first_below()
    # report a crossing inside a zero-width segment.
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepResult("x", (1.0, 2.0, 2.0), (10.0, 5.0, 0.0))


def test_sweep_result_rejects_unsorted_xs():
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepResult("x", (2.0, 1.0, 3.0), (10.0, 5.0, 0.0))


def test_sweep_evaluates_in_order():
    result = sweep("n", [1, 2, 3], lambda x: x * 10)
    assert result.xs == (1.0, 2.0, 3.0)
    assert result.ys == (10.0, 20.0, 30.0)


class TestInterpolation:
    CURVE = SweepResult("x", (0.0, 10.0, 20.0), (100.0, 50.0, 0.0))

    def test_exact_points(self):
        assert self.CURVE.interpolate(10.0) == 50.0

    def test_midpoints(self):
        assert self.CURVE.interpolate(5.0) == 75.0
        assert self.CURVE.interpolate(15.0) == 25.0

    def test_clamping(self):
        assert self.CURVE.interpolate(-5.0) == 100.0
        assert self.CURVE.interpolate(99.0) == 0.0

    def test_first_below(self):
        assert self.CURVE.first_below(50.0) == pytest.approx(10.0, abs=2.1)
        assert self.CURVE.first_below(75.0) == pytest.approx(5.0, abs=0.1)
        assert self.CURVE.first_below(-1.0) is None

    def test_first_below_at_start(self):
        low = SweepResult("x", (0.0, 1.0), (1.0, 2.0))
        assert low.first_below(5.0) == 0.0


class TestFirstBelowRegressions:
    """``first_below`` on degenerate curves: flat segments used to hit a
    dead ``y0 == y1`` branch that reported the *right* edge of a flat
    run instead of the true crossing."""

    def test_flat_curve_entirely_below_reports_first_x(self):
        flat = SweepResult("x", (3.0, 7.0, 11.0), (2.0, 2.0, 2.0))
        assert flat.first_below(5.0) == 3.0

    def test_flat_curve_entirely_above_never_crosses(self):
        flat = SweepResult("x", (0.0, 10.0), (8.0, 8.0))
        assert flat.first_below(5.0) is None

    def test_flat_at_threshold_then_drop(self):
        """Points sitting exactly at the threshold are not "below"; the
        crossing is where the curve finally dips under it."""
        curve = SweepResult("x", (0.0, 10.0, 20.0), (5.0, 5.0, 3.0))
        x = curve.first_below(5.0)
        assert x == 10.0  # left endpoint of the crossing segment

    def test_interpolated_crossing_is_exact(self):
        curve = SweepResult("x", (0.0, 10.0), (100.0, 0.0))
        assert curve.first_below(25.0) == pytest.approx(7.5)

    def test_single_point_curves(self):
        assert SweepResult("x", (4.0,), (1.0,)).first_below(2.0) == 4.0
        assert SweepResult("x", (4.0,), (9.0,)).first_below(2.0) is None

    def test_crossing_at_the_segment_end_stays_inside_the_grid(self):
        # t rounds to 1.0 and x0 + t * (x1 - x0) to one ulp past x1.
        curve = SweepResult("x", (9.752632555660966, 103037.82397954074),
                            (2.9377374361552437, 0.0))
        assert curve.first_below(2.2e-16) == 103037.82397954074


class TestCrossover:
    def test_crossing_curves(self):
        a = SweepResult("x", (0.0, 1.0, 2.0), (10.0, 5.0, 0.0))
        b = SweepResult("x", (0.0, 1.0, 2.0), (2.0, 2.0, 2.0))
        x = find_crossover(a, b)
        assert 1.0 < x < 2.0

    def test_never_crossing(self):
        a = SweepResult("x", (0.0, 1.0), (10.0, 9.0))
        b = SweepResult("x", (0.0, 1.0), (1.0, 1.0))
        assert find_crossover(a, b) is None

    def test_starts_below(self):
        a = SweepResult("x", (0.0, 1.0), (1.0, 1.0))
        b = SweepResult("x", (0.0, 1.0), (5.0, 5.0))
        assert find_crossover(a, b) == 0.0

    def test_curves_touching_at_the_last_point_cross_there(self):
        xs = (5.281565586970828, 89739.47345067094)
        a = SweepResult("a", xs, (1.0, 0.5))
        b = SweepResult("b", xs, (0.0, 0.5))
        assert find_crossover(a, b) == 89739.47345067094

    def test_mismatched_grids_rejected(self):
        a = SweepResult("x", (0.0, 1.0), (1.0, 1.0))
        b = SweepResult("x", (0.0, 2.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            find_crossover(a, b)


class TestCannedSweeps:
    def test_overhead_falls_with_operation_size(self):
        """The section 4.2 structure: fixed per-crossing tax, so bigger
        operations dilute it monotonically."""
        cpu = get_cpu("broadwell")
        result = overhead_vs_operation_size(
            cpu, linux_default(cpu), sizes=(100, 1000, 10000, 100000))
        assert list(result.ys) == sorted(result.ys, reverse=True)
        assert result.ys[0] > 100   # getpid-sized: enormous relative tax
        assert result.ys[-1] < 5    # fork-sized: noise

    def test_ssbd_overhead_rises_with_forwarding_density(self):
        result = ssbd_overhead_vs_forwarding_density(
            get_cpu("zen3"), densities=(0, 40, 120))
        assert result.ys[0] == pytest.approx(0.0, abs=0.5)
        assert list(result.ys) == sorted(result.ys)

    def test_ssbd_curve_steeper_on_zen3_than_broadwell(self):
        """The Figure 5 gradient as a curve property."""
        dens = (0, 80, 160)
        zen3 = ssbd_overhead_vs_forwarding_density(get_cpu("zen3"), dens)
        broadwell = ssbd_overhead_vs_forwarding_density(
            get_cpu("broadwell"), dens)
        assert zen3.ys[-1] > 2 * broadwell.ys[-1]
