import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fuzzgrid import (
    GAUSSIAN,
    TRIANGULAR,
    DataSpec,
    FuzzyModel,
    NeuroFuzzyConfig,
    Partition,
    activations,
    difference_surface,
    grid_axes,
)
from fuzzgrid import evaluation
from fuzzgrid.cli import SIMPLIFIED, ExperimentConfig, run_cells
from fuzzgrid.inference import check_model_size
from fuzzgrid.membership import KINDS

from oracles import argmax_set, degree

# Widths beyond the range from which every gaussian degree is 0.0:
# exp(-30.0**2) underflows to zero.
GAUSS_REACH = 30.0


def test_triangular_center_and_crossing():
    # the middle set of three on [0, 10]: center 5, half-base 5
    p = Partition(0, 10, 3, TRIANGULAR)
    middle = p.degrees(np.array([5.0, 7.5, 10.0, 12.0]))[:, 1]
    assert middle.tolist() == [1.0, 0.5, 0.0, 0.0]


def test_gaussian_one_sigma():
    # the middle set of three on [0, 10]: center 5, sigma 0.5 * 5
    p = Partition(0, 10, 3, GAUSSIAN, 0.5)
    assert p.degrees(5.0)[1] == 1.0
    assert p.degrees(7.5)[1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_uniform_partition_centers_and_widths():
    p = Partition(0, 10, 3, TRIANGULAR)
    assert list(p.centers) == [0.0, 5.0, 10.0]
    assert p.width == 5.0

    out = Partition(2, 22, 13, TRIANGULAR)
    assert out.n == 13
    assert out.spacing == pytest.approx(5.0 / 3.0, rel=1e-15)
    # last center is pinned to the range end even when spacing rounds
    assert out.centers[-1] == 22.0


def test_partition_centers_are_read_only_and_zero_bounds_positive():
    # Equal partitions are shared by value, so equal bounds must print
    # alike: a bound of -0.0 is stored as 0.0.
    p = Partition(-0.0, 10, 3, TRIANGULAR)
    q = Partition(-10, -0.0, 3, GAUSSIAN)
    assert math.copysign(1.0, p.lo) == 1.0 and math.copysign(1.0, q.hi) == 1.0
    assert repr(p) == repr(Partition(0.0, 10, 3, TRIANGULAR))
    with pytest.raises(ValueError, match="read-only"):
        p.centers[0] = 1.0


def test_only_a_gaussian_width_factor_tells_partitions_apart():
    # A triangular set's half-base is the spacing whatever the width factor,
    # so both partitions give the same degrees and compare and hash alike.
    p, q = Partition(1, 11, 9, TRIANGULAR), Partition(1, 11, 9, TRIANGULAR, 0.3)
    xs = np.linspace(0, 12, 101)
    assert np.array_equal(p.degrees(xs), q.degrees(xs))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    # repr still shows the width factor each was given
    assert repr(q) == "Partition(1.0, 11.0, 9, 'triangular', width_factor=0.3)"
    assert repr(p) != repr(q)
    g = Partition(1, 11, 9, GAUSSIAN)
    assert g != Partition(1, 11, 9, GAUSSIAN, 0.3)
    assert g == Partition(1, 11, 9, GAUSSIAN, 0.5) and g != p


def test_width_factors_of_one_width_compare_equal():
    # Two gaussian width factors whose sigmas round alike give bit-identical
    # degrees, so they compare and hash alike and share one grid entry.
    p = Partition(1, 11, 14, GAUSSIAN, 2.641804269351041)
    q = Partition(1, 11, 14, GAUSSIAN, 2.6418042693510415)
    assert p.width_factor != q.width_factor and p.width == q.width
    xs = np.linspace(0, 12, 101)
    assert np.array_equal(p.degrees(xs), q.degrees(xs))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    evaluation._evaluation.cache_clear()
    assert evaluation._evaluation(q, 50) is evaluation._evaluation(p, 50)
    assert evaluation._evaluation.cache_info().currsize == 1


def test_gaussian_width_factor():
    p = Partition(0, 10, 3, GAUSSIAN, 0.5)
    assert p.width == 2.5
    assert p.degrees(7.5)[1] == pytest.approx(degree(p, 1, 7.5), rel=1e-15)


def test_partition_validation():
    with pytest.raises(ValueError, match="invalid range"):
        Partition(5, 5, 3, TRIANGULAR)
    with pytest.raises(ValueError, match="set count must be at least 2"):
        Partition(0, 10, 1, TRIANGULAR)
    with pytest.raises(ValueError, match="invalid width factor"):
        Partition(0, 10, 3, GAUSSIAN, 0.0)
    with pytest.raises(ValueError, match="unknown membership kind"):
        Partition(0, 10, 3, "trapezoid")


def square_model():
    p = Partition(0, 10, 3, TRIANGULAR)
    return FuzzyModel([p, p], Partition(0, 20, 13, TRIANGULAR), np.add.outer(p.centers, p.centers))


# The count arguments of the value types and of the grid and sweep entry
# points, each with what it gives back for a valid count.
COUNT_ENTRY_POINTS = {
    "DataSpec n": lambda n: DataSpec(n=n).n,
    "DataSpec seed": lambda n: DataSpec(n=1, seed=n).seed,
    "Partition n": lambda n: Partition(0, 10, n, TRIANGULAR).n,
    "NeuroFuzzyConfig epochs": lambda n: NeuroFuzzyConfig(epochs=n).epochs,
    "grid_axes resolution": lambda n: grid_axes(square_model(), n)[0].tolist(),
    "difference_surface resolution": (
        lambda n: difference_surface(square_model(), square_model(), n).diff_grid.tolist()
    ),
    "run_cells trials": lambda n: run_cells([ExperimentConfig(SIMPLIFIED, n_examples=20)], n),
    "check_model_size sizes": lambda n: check_model_size([n, 3], n),
}


@pytest.mark.parametrize("count", [2.5, True, "3"])
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_entry_points_refuse_non_integers(entry, count):
    # 2.5 used to build 2 sets or raise TypeError, and True to run one trial.
    with pytest.raises(ValueError, match=f"must be an integer, got {count!r}$"):
        COUNT_ENTRY_POINTS[entry](count)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_entry_points_take_numpy_integers(entry):
    value = COUNT_ENTRY_POINTS[entry](np.int64(3))
    assert value == COUNT_ENTRY_POINTS[entry](3)
    # a count that is kept is kept as a Python int
    assert not isinstance(value, np.integer)


# The real-valued arguments of the value types, each with what it keeps.
REAL_ENTRY_POINTS = {
    "NeuroFuzzyConfig alpha": lambda v: NeuroFuzzyConfig(alpha=v).alpha,
    "DataSpec noise_level": lambda v: DataSpec(n=1, noise_level=v).noise_level,
    "DataSpec domain": lambda v: DataSpec(n=1, domain=((v, 2.0), (0.0, 1.0))).domain,
    "Partition lo": lambda v: Partition(v, 2.0, 3, TRIANGULAR).lo,
    "Partition hi": lambda v: Partition(-1.0, v, 3, TRIANGULAR).hi,
    "Partition width factor": lambda v: Partition(0, 1, 3, GAUSSIAN, v).width,
}


@pytest.mark.parametrize("value", [True, "0.5", None])
@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_real_entry_points_refuse_non_numbers_and_bools(entry, value):
    # These used to raise TypeError, and True used to be taken as 1.0.
    with pytest.raises(ValueError, match=f"must be a real number, got {value!r}$"):
        REAL_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1)])
@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_real_entry_points_take_numpy_reals(entry, value):
    assert REAL_ENTRY_POINTS[entry](value) == REAL_ENTRY_POINTS[entry](value.item())


@pytest.mark.parametrize(
    "lo,hi", [(math.nan, 10.0), (0.0, math.nan), (-math.inf, 10.0), (0.0, math.inf), (-1e308, 1e308)]
)
def test_partition_rejects_non_finite_range_and_span_overflow(lo, hi):
    # lo >= hi is false for NaN, and (-1e308, 1e308) used to give centers
    # [nan, inf, 1e308].
    with pytest.raises(ValueError, match="invalid range"):
        Partition(lo, hi, 3, TRIANGULAR)


@pytest.mark.parametrize("wf", [math.nan, math.inf])
def test_partition_rejects_non_finite_width_factor(wf):
    with pytest.raises(ValueError, match="invalid width factor"):
        Partition(0, 10, 3, GAUSSIAN, wf)


@pytest.mark.parametrize(
    "args",
    [
        (0, 1, 3, GAUSSIAN, 5e-324),  # sigma underflows to 0
        (0, 5e-324, 3, TRIANGULAR),  # the spacing underflows to 0
        (0, 10, 9, GAUSSIAN, 1e-300),  # ((hi - lo) / sigma)**2 overflows
        (0, 10, 9, GAUSSIAN, 1e-160),
    ],
)
def test_partition_rejects_width_out_of_bounds(args):
    # The first two used to build, then give degrees [0, 0, 0] with a
    # divide warning and NaN degrees.
    with pytest.raises(ValueError, match=r"need width > 0 and \(\(hi - lo\) / width\)\*\*2 finite"):
        Partition(*args)


def test_partition_width_at_the_bound_gives_finite_degrees():
    # sigma 1.25e-150: (hi - lo) / sigma = 8e150, whose square is finite
    p = Partition(0, 10, 9, GAUSSIAN, 1e-150)
    assert p.degrees(np.array([0.0, 10.0, 3.0])).tolist() == [
        [1.0] + [0.0] * 8,
        [0.0] * 8 + [1.0],
        [0.0] * 9,
    ]


def test_gaussian_degrees_far_outside_the_range():
    # d * d overflows here from about x = 1e154, and d itself above 1.1e308,
    # to a degree of 0.0; pytest turns a RuntimeWarning into an error.
    p = Partition(1, 11, 9, GAUSSIAN)
    far = np.array([1e200, -1e200, 1.7e308, -1.7e308])
    assert p.degrees(far).tolist() == [[0.0] * 9] * 4
    assert p.degrees(-1e300).tolist() == [0.0] * 9
    assert math.exp(-(GAUSS_REACH * (1 - 1e-12)) ** 2) == 0.0


@pytest.mark.parametrize("wf", [0.05, 0.5, 3.0])
def test_gaussian_reach_changes_no_degree(wf):
    # Below the overflow point the degrees are the bits of exp(-d * d).
    p = Partition(1, 11, 9, GAUSSIAN, wf)
    rng = np.random.default_rng(8)
    reach = GAUSS_REACH * p.width
    x = np.concatenate([
        rng.uniform(-300, 300, 4000),
        rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(0, 150, 1000),
        [1 - reach, 11 + reach, 1 - 0.9 * reach, np.nextafter(11 + reach, np.inf)],
    ])
    d = np.abs(x[:, None] - p.centers) / p.width
    assert np.array_equal(p.degrees(x), np.exp(-d * d))
    assert all(np.array_equal(p.degrees(v), np.exp(-dv * dv)) for v, dv in zip(x[::50], d[::50]))


@pytest.mark.parametrize(
    "lo, hi, wf",
    # reach is far under an ulp of lo, 0.4 ulp, 1.49 ulp (lo - reach rounds
    # to lo - 1 ulp, 20 widths out), and far under an ulp of 1
    [(1e6, 1e6 + 8, 1e-20), (1e6, 1e6 + 8, 1.55e-12), (1e6, 1e6 + 8, 5.78e-12), (1, 11, 1e-20)],
)
def test_gaussian_reach_holds_for_tiny_widths(lo, hi, wf):
    # lo - reach and hi + reach round toward the range when reach is a few
    # ulps or less; the degrees just outside the range must still be the
    # bits of exp(-d * d).
    p = Partition(lo, hi, 9, GAUSSIAN, wf)
    below, above = [lo], [hi]
    for _ in range(6):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    x = np.array(below[1:] + above[1:] + [lo - 1.0, hi + 1.0])
    d = np.abs(x[:, None] - p.centers) / p.width
    assert np.array_equal(p.degrees(x), np.exp(-d * d))
    assert all(np.array_equal(p.degrees(v), np.exp(-dv * dv)) for v, dv in zip(x, d))


def test_triangular_degrees_far_outside_the_range():
    # |x - c| / width overflows here for x near 1e308 with 30 sets.
    p = Partition(1, 11, 30, TRIANGULAR)
    far = np.array([1e200, -1e200, 1.7e308, -1.7e308, np.inf, -np.inf])
    assert p.degrees(far).tolist() == [[0.0] * 30] * 6
    assert p.degrees(1.5e308).tolist() == [0.0] * 30


@pytest.mark.parametrize(
    "lo, hi, n",
    # an ordinary range, and spacings of about 0.4 and 1.3 ulps of lo
    [(1, 11, 9), (1e6, 1e6 + 4e-10, 9), (1e6, 1e6 + 1.2e-9, 9)],
)
def test_triangular_clip_changes_no_degree(lo, hi, n):
    # Below the overflow point the degrees are the bits of
    # max(0, 1 - |x - c| / width), one width out and beyond included.
    p = Partition(lo, hi, n, TRIANGULAR)
    rng = np.random.default_rng(9)
    below, above = [lo - p.width], [hi + p.width]
    for _ in range(6):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    span = hi - lo
    x = np.concatenate([
        rng.uniform(lo - 3 * span, hi + 3 * span, 4000),
        rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(0, 150, 1000),
        below, above, [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)],
    ])
    expected = np.maximum(0.0, 1.0 - np.abs(x[:, None] - p.centers) / p.width)
    assert np.array_equal(p.degrees(x), expected)
    assert all(np.array_equal(p.degrees(v), e) for v, e in zip(x[::50], expected[::50]))
    assert all(np.array_equal(p.degrees(v), e) for v, e in zip(x[-14:], expected[-14:]))


def formula_degrees(p, x):
    """The degrees of x by the formula, one center at a time in Python
    floats: an overflow gives inf, as in IEEE arithmetic."""
    d = [abs(x - c) / p.width for c in p.centers.tolist()]
    if p.kind == TRIANGULAR:
        return np.array([max(0.0, 1.0 - v) for v in d])
    return np.exp(np.array([-v * v for v in d]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_degrees_are_the_formula_for_any_input(data):
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    lo = data.draw(st.floats(-1e9, 1e9), label="lo")
    # spans from a few ulps of lo up, width factors down to the width bound
    span = max(abs(lo), 1.0) * 10.0 ** data.draw(st.floats(-15.5, 3.0), label="log span")
    n = data.draw(st.integers(2, 12), label="n")
    wf = 10.0 ** data.draw(st.floats(-160.0, 1.0), label="log width factor")
    try:
        p = Partition(lo, lo + span, n, kind, wf)
    except ValueError:
        assume(False)
    edge = data.draw(
        st.sampled_from([p.lo, p.hi, p.lo - p.width, p.hi + p.width,
                         p.lo - GAUSS_REACH * p.width, p.hi + GAUSS_REACH * p.width]),
        label="edge",
    )
    near = edge
    for _ in range(data.draw(st.integers(1, 3), label="ulps")):
        near = np.nextafter(near, data.draw(st.sampled_from([-np.inf, np.inf])))
    x = [near, data.draw(st.floats(allow_nan=False), label="x"), np.inf, -np.inf, 1.7e308, -1.7e308]
    expected = np.array([formula_degrees(p, float(v)) for v in x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(p.degrees(np.array(x)), expected)
        assert all(np.array_equal(p.degrees(v), e) for v, e in zip(x, expected))


def test_best_set_examples():
    p = Partition(0, 10, 3, TRIANGULAR)
    assert p.best(6.0) == 1
    assert p.best(2.5) == 0  # exact tie, lower index wins
    assert p.best(12.0) == 2  # clamped to 10


def test_best_set_matches_brute_force():
    rng = np.random.default_rng(11)
    for kind in (TRIANGULAR, GAUSSIAN):
        p = Partition(-3, 17, 7, kind)
        for x in rng.uniform(-5, 20, size=200):
            assert p.best(float(x)) == argmax_set(p, float(x))


def test_partition_of_unity():
    rng = np.random.default_rng(3)
    for n in (3, 5, 7, 9, 13):
        p = Partition(1, 11, n, TRIANGULAR)
        xs = rng.uniform(1, 11, size=2000)
        sums = np.array([p.degrees(x).sum() for x in xs])
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_activations_reject_x_of_the_wrong_shape():
    # Three partitions over two columns used to give 9 cells per row, and two
    # partitions over three columns ignored the third.
    p = Partition(0, 10, 3, TRIANGULAR)
    X = np.full((4, 2), 5.0)
    with pytest.raises(ValueError, match=r"X must have shape \(N, 3\), got \(4, 2\)"):
        activations([p, p, p], X)
    with pytest.raises(ValueError, match=r"X must have shape \(N, 2\), got \(4, 3\)"):
        activations([p, p], np.full((4, 3), 5.0))
    with pytest.raises(ValueError, match=r"X must have shape \(N, 2\), got \(2,\)"):
        activations([p, p], X[0])
    assert activations([p, p], X).shape == (4, 9)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_triangular_activation_rows_sum_to_one(data):
    # Centers carry the rounding of lo, about ulp(lo) / spacing relative to
    # a set's width, so the 1e-12 gate holds for |lo| <= 100 and spacing
    # >= 1/11; far from 0 with a small span, the sums drift further.
    d = data.draw(st.sampled_from([2, 3]), label="inputs")
    parts = []
    for _ in range(d):
        lo = data.draw(st.floats(-100, 100), label="lo")
        span = data.draw(st.floats(1, 100), label="span")
        n = data.draw(st.integers(2, 12), label="sets")
        parts.append(Partition(lo, lo + span, n, TRIANGULAR))
    rows = data.draw(st.integers(1, 20), label="rows")
    X = np.column_stack(
        [
            data.draw(hnp.arrays(float, rows, elements=st.floats(p.lo, p.hi)), label="x")
            for p in parts
        ]
    )
    assert np.abs(activations(parts, X).sum(axis=1) - 1.0).max() <= 1e-12


def test_triangular_continuity():
    p = Partition(0, 10, 5, TRIANGULAR)
    eps = 1e-6
    rng = np.random.default_rng(5)
    xs = rng.uniform(0, 10, size=100)
    delta = np.abs(p.degrees(xs) - p.degrees(xs + eps))
    assert np.all(delta <= eps / p.width + 1e-12)


def test_clamping_equivalence():
    p = Partition(2, 8, 4, TRIANGULAR)
    for x in (-100.0, 1.9, 2.0, 8.0, 8.1, 1e9):
        assert p.best(x) == p.best(min(max(x, p.lo), p.hi))


def test_degrees_vector_matches_scalar():
    for kind in (TRIANGULAR, GAUSSIAN):
        p = Partition(1, 11, 9, kind)
        for x in (0.5, 1.0, 3.3, 7.77, 11.0, 12.5):
            vec = p.degrees(x).tolist()
            expected = [degree(p, i, x) for i in range(p.n)]
            if kind == TRIANGULAR:
                assert vec == expected
            else:  # the oracle's math.exp may differ from np.exp in the last bit
                assert vec == pytest.approx(expected, rel=1e-15, abs=0)


def test_batched_degrees_match_scalar_rows():
    rng = np.random.default_rng(13)
    xs = np.concatenate([rng.uniform(-5, 20, size=300), [1.0, 11.0, 6.0, -40.0, 90.0]])
    for kind in (TRIANGULAR, GAUSSIAN):
        for wf in (0.05, 0.5, 1.5):
            p = Partition(1, 11, 9, kind, wf)
            batched = p.degrees(xs)
            assert batched.shape == (len(xs), 9)
            rows = np.stack([p.degrees(float(x)) for x in xs])
            assert np.array_equal(batched, rows)
            assert p.best(xs).tolist() == [p.best(float(x)) for x in xs]


def test_best_rejects_non_finite():
    p = Partition(0, 10, 3, TRIANGULAR)
    for x in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            p.best(x)
    with pytest.raises(ValueError, match="non-finite"):
        p.best(np.array([1.0, float("nan")]))
