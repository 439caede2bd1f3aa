import math

import numpy as np
import pytest

from fuzzgrid import GAUSSIAN, TRIANGULAR, Partition

from oracles import argmax_set, degree


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


def test_gaussian_width_factor():
    p = Partition(0, 10, 3, GAUSSIAN, 0.5)
    assert p.width == 2.5
    assert p.degrees(7.5)[1] == pytest.approx(degree(p, 1, 7.5), rel=1e-15)


def test_partition_validation():
    with pytest.raises(ValueError, match="invalid range"):
        Partition(5, 5, 3, TRIANGULAR)
    with pytest.raises(ValueError, match="invalid count"):
        Partition(0, 10, 1, TRIANGULAR)
    with pytest.raises(ValueError, match="invalid width factor"):
        Partition(0, 10, 3, GAUSSIAN, 0.0)
    with pytest.raises(ValueError, match="unknown membership kind"):
        Partition(0, 10, 3, "trapezoid")


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
