"""Hypothesis properties of the sweep/crossover machinery."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.sweeps import SweepResult, find_crossover, sweep

ys = st.floats(min_value=-1e6, max_value=1e6,
               allow_nan=False, allow_infinity=False)


def sorted_xs(n):
    return st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        min_size=n, max_size=8, unique=True,
    ).map(sorted)


@st.composite
def curves(draw, min_points=2):
    xs = tuple(draw(sorted_xs(min_points)))
    values = tuple(draw(st.lists(ys, min_size=len(xs), max_size=len(xs))))
    return SweepResult("x", xs, values)


@given(curves(), st.floats(min_value=0, max_value=1e6, allow_nan=False))
@settings(max_examples=100)
def test_interpolation_bounded_by_extremes(curve, x):
    y = curve.interpolate(x)
    assert min(curve.ys) - 1e-6 <= y <= max(curve.ys) + 1e-6


@given(curves())
@settings(max_examples=100)
def test_interpolation_exact_at_grid_points(curve):
    for x, y in zip(curve.xs, curve.ys):
        assert curve.interpolate(x) == y


@given(curves(), ys)
@example(SweepResult("x", (9.752632555660966, 103037.82397954074),
                     (2.9377374361552437, 0.0)), 2.2e-16)
@settings(max_examples=100)
def test_first_below_returns_x_in_range_or_none(curve, threshold):
    crossing = curve.first_below(threshold)
    if crossing is not None:
        assert curve.xs[0] <= crossing <= curve.xs[-1]
        # And indeed some sampled point sits below the threshold.
        assert any(y < threshold for y in curve.ys)
    else:
        assert all(y >= threshold for y in curve.ys)


@given(curves())
@settings(max_examples=100)
def test_crossover_with_self_is_the_first_x(curve):
    assert find_crossover(curve, curve) == curve.xs[0]


@given(curves())
@settings(max_examples=100)
def test_crossover_against_strictly_lower_curve_is_none(curve):
    lower = SweepResult("x", curve.xs,
                        tuple(y - 1.0 for y in curve.ys))
    assert find_crossover(curve, lower) is None


@given(st.lists(ys, min_size=2, max_size=8))
@settings(max_examples=100)
def test_sweep_preserves_function_values(values):
    table = dict(enumerate(values))
    result = sweep("i", list(table), lambda x: table[x])
    assert result.ys == tuple(float(v) for v in values)
