import numpy as np
import pytest

from fuzzgrid import (
    GAUSSIAN,
    TRIANGULAR,
    DataSpec,
    Dataset,
    DiffReport,
    FuzzyModel,
    Partition,
    cluster_learn,
    difference_surface,
    grid_axes,
    grid_values,
    infer,
    make_plane_dataset,
    model_error,
    plane_truth,
    write_diff_report,
)


def linear_model(n=5, kind=TRIANGULAR, wf=0.5):
    px = Partition(1, 11, n, kind, wf)
    py = Partition(1, 11, n, kind, wf)
    pout = Partition(2, 22, 13, TRIANGULAR)
    conclusions = np.add.outer(px.centers, py.centers)
    return FuzzyModel([px, py], pout, conclusions)


def sparse_model():
    # corner-heavy data leaves triangular cells empty
    px = Partition(1, 11, 5, TRIANGULAR)
    py = Partition(1, 11, 5, TRIANGULAR)
    pout = Partition(2, 22, 13, TRIANGULAR)
    data = Dataset([(1.5, 1.5), (2.0, 3.0), (10.5, 10.0)], [3.0, 5.0, 20.5])
    return cluster_learn(data, [px, py], pout)


def test_plane_truth():
    assert plane_truth(3.0, 4.5) == 7.5


def test_grid_axes_span_the_domain():
    xs, ys = grid_axes(linear_model(), 50)
    assert xs[0] == 1.0 and xs[-1] == 11.0
    assert len(xs) == len(ys) == 50


def test_grid_axes_validation():
    with pytest.raises(ValueError, match="at least 2"):
        grid_axes(linear_model(), 1)
    p = Partition(0, 1, 3, TRIANGULAR)
    pout = Partition(0, 2, 13, TRIANGULAR)
    m3 = FuzzyModel([p, p, p], pout, np.zeros((3, 3, 3)))
    with pytest.raises(ValueError, match="2-input"):
        grid_axes(m3, 10)


def test_grid_values_match_pointwise_inference():
    for model in (linear_model(kind=GAUSSIAN), sparse_model()):
        res = 13
        xs, ys = grid_axes(model, res)
        grid = grid_values(model, res)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                v = infer(model, (float(x), float(y)))
                if v is None:
                    assert np.isnan(grid[i, j])
                else:
                    assert grid[i, j] == pytest.approx(v, abs=1e-12)


def test_self_difference_is_zero():
    m = linear_model()
    report = difference_surface(m, m, resolution=20)
    assert report.rmse == 0.0
    assert report.max_abs == 0.0
    assert report.gap_fraction == 0.0
    assert np.all(report.diff_grid == 0.0)
    assert report.rule_changes["changed"] == 0
    assert report.rule_changes["only_a"] == 0
    assert report.rule_changes["only_b"] == 0
    assert report.rule_changes["unchanged"] == 25


def test_constant_shift_gives_unit_rmse():
    a = linear_model()
    shifted = FuzzyModel(
        a.input_partitions, a.output_partition, a.conclusions + 1.0
    )
    report = difference_surface(a, shifted, resolution=20)
    assert report.rmse == pytest.approx(1.0, abs=1e-12)
    assert report.max_abs == pytest.approx(1.0, abs=1e-12)


def test_difference_is_antisymmetric():
    clean = cluster_learn(
        make_plane_dataset(DataSpec(n=100, seed=0)),
        linear_model().input_partitions,
        linear_model().output_partition,
    )
    noisy = cluster_learn(
        make_plane_dataset(DataSpec(n=100, noise_level=0.3, seed=0)),
        linear_model().input_partitions,
        linear_model().output_partition,
    )
    fwd = difference_surface(clean, noisy, resolution=15)
    rev = difference_surface(noisy, clean, resolution=15)
    assert np.array_equal(fwd.diff_grid, -rev.diff_grid, equal_nan=True)
    assert fwd.rule_changes["only_a"] == rev.rule_changes["only_b"]


def test_gap_points_are_excluded_from_aggregates():
    full = linear_model()
    sparse = sparse_model()
    report = difference_surface(full, sparse, resolution=20)
    assert 0.0 < report.gap_fraction < 1.0
    valid = ~np.isnan(report.diff_grid)
    assert report.rmse == pytest.approx(
        float(np.sqrt(np.mean(report.diff_grid[valid] ** 2)))
    )
    assert report.rule_changes["only_a"] > 0


def test_all_empty_model_yields_no_aggregates():
    px = Partition(1, 11, 5, TRIANGULAR)
    py = Partition(1, 11, 5, TRIANGULAR)
    pout = Partition(2, 22, 13, TRIANGULAR)
    empty = FuzzyModel([px, py], pout, np.full((5, 5), np.nan))
    report = difference_surface(empty, empty, resolution=10)
    assert report.rmse is None
    assert report.max_abs is None
    assert report.gap_fraction == 1.0


def test_difference_rejects_mismatched_domains():
    a = linear_model()
    px = Partition(0, 10, 5, TRIANGULAR)
    py = Partition(1, 11, 5, TRIANGULAR)
    pout = Partition(2, 22, 13, TRIANGULAR)
    b = FuzzyModel([px, py], pout, np.zeros((5, 5)))
    with pytest.raises(ValueError, match="input domains differ"):
        difference_surface(a, b)


def test_linear_conclusions_reproduce_the_plane():
    # triangular interpolation of c_ij = x_i + y_j is exact for z = x + y
    err = model_error(linear_model(n=9), plane_truth, 50)
    assert err["rmse"] < 1e-9
    assert err["max_abs"] < 1e-9
    assert err["gap_fraction"] == 0.0


def test_cluster_fit_error_in_expected_band():
    # 9 sets cannot track a plane exactly, but 400 clean samples should
    # land around 1% of the output range, nowhere near one output step
    data = make_plane_dataset(DataSpec(n=400, seed=0))
    px = Partition(1, 11, 9, TRIANGULAR)
    py = Partition(1, 11, 9, TRIANGULAR)
    pout = Partition(2, 22, 13, TRIANGULAR)
    err = model_error(cluster_learn(data, [px, py], pout), plane_truth, 50)
    assert 0.15 < err["rmse"] < 0.29
    assert err["gap_fraction"] == 0.0


def test_write_diff_report_format(tmp_path):
    report = difference_surface(linear_model(), sparse_model(), resolution=6)
    path = tmp_path / "diff.csv"
    write_diff_report(report, path, metadata={"seed": 0, "algorithm": "cluster"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "# algorithm=cluster"
    assert lines[2] == "x,y,diff"
    rows = lines[3:]
    assert len(rows) == 36
    assert any(row.endswith(",NaN") for row in rows)
    first = rows[0].split(",")
    assert float(first[0]) == report.xs[0]
    assert float(first[1]) == report.ys[0]


def test_write_diff_report_without_metadata(tmp_path):
    report = difference_surface(linear_model(), linear_model(), resolution=4)
    path = tmp_path / "diff.csv"
    write_diff_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,diff"
    assert len(lines) == 17
    # parse a value back: all diffs are exactly zero here
    assert {row.split(",")[2] for row in lines[1:]} == {"0"}
