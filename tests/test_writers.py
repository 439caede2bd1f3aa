"""The report, heatmap and model writers match the per-cell oracles byte for byte."""

import math

import numpy as np
import pytest

from fuzzgrid import GAUSSIAN, TRIANGULAR, DiffReport, FuzzyModel, Partition, save_model, write_diff_report
from fuzzgrid.cli import ALGORITHMS, ExperimentConfig, render_heatmap, run_pair

import oracles


def same_file(tmp_path, write, oracle_write, obj, *rest):
    """Whether write and oracle_write put the same bytes in a file for obj."""
    write(obj, tmp_path / "got", *rest)
    oracle_write(obj, tmp_path / "want", *rest)
    return (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def assert_writers_match(tmp_path, report, models=()):
    meta = {"clean_model": "a b.model", "resolution": len(report.xs)}
    assert same_file(tmp_path, write_diff_report, oracles.write_diff_report, report, meta)
    assert render_heatmap(report) == oracles.render_heatmap(report)
    for model in models:
        assert same_file(tmp_path, save_model, oracles.save_model, model)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_writers_match_oracles_on_learned_pairs(tmp_path, algo):
    for seed in (0, 3, 11):
        for resolution in (2, 7, 100):
            cfg = ExperimentConfig(algo, resolution=resolution)
            clean, noisy, report = run_pair(cfg, seed)
            assert_writers_match(tmp_path, report, (clean, noisy))


def synthetic_report(grid):
    grid = np.asarray(grid, dtype=float)
    nx, ny = grid.shape
    return DiffReport(
        xs=np.linspace(1.0, 11.0, nx),
        ys=np.linspace(-3.0, 0.5, ny),
        diff_grid=grid,
        rmse=None,
        max_abs=None,
        gap_fraction=0.0,
        rule_changes={},
    )


def _decile_ties():
    # 35 zeros, 30 of magnitude 1 and 35 of magnitude 2, both signs: every
    # decile edge equals a grid value, so side="left" decides each bucket.
    rng = np.random.default_rng(5)
    values = np.repeat([0.0, 1.0, 2.0], [35, 30, 35]) * rng.choice([-1.0, 1.0], 100)
    return rng.permutation(values).reshape(10, 10)


SYNTHETIC = {
    "all-gap": np.full((6, 6), math.nan),
    "gap-free": np.random.default_rng(1).standard_normal((9, 9)),
    "decile-ties": _decile_ties(),
    "negative-zero": np.array([[0.0, -0.0, 1e-300], [-0.0, math.nan, -2.5], [0.0, 3.0, -0.0]]),
    "gaps-and-ties": np.where(np.arange(64).reshape(8, 8) % 7 == 0, math.nan, _decile_ties()[:8, :8]),
    "non-square": np.arange(15.0).reshape(3, 5) - 7.0,
}


@pytest.mark.parametrize("name", SYNTHETIC)
def test_writers_match_oracles_on_synthetic_grids(tmp_path, name):
    report = synthetic_report(SYNTHETIC[name])
    assert_writers_match(tmp_path, report)


def test_synthetic_grids_reach_the_cases_they_name(tmp_path):
    ties = np.abs(SYNTHETIC["decile-ties"])
    edges = np.quantile(ties, np.arange(1, 10) / 10.0)
    assert np.isin(edges, ties).all()
    report = synthetic_report(SYNTHETIC["negative-zero"])
    write_diff_report(report, tmp_path / "r.csv")
    cells = [line.split(",")[2] for line in (tmp_path / "r.csv").read_text().splitlines()[1:]]
    assert cells.count("-0") == 3 and cells.count("NaN") == 1
    assert set(render_heatmap(synthetic_report(SYNTHETIC["all-gap"]))) == {"?", "\n"}


def test_save_model_matches_oracle_on_any_grid(tmp_path):
    tri = Partition(0, 1, 3, TRIANGULAR)
    gauss = Partition(-2, 5, 4, GAUSSIAN, 0.7)
    out = Partition(0, 2, 13, TRIANGULAR)
    rng = np.random.default_rng(2)
    models = [
        FuzzyModel([tri], out, [0.5, math.nan, -0.0]),
        FuzzyModel([tri, gauss, tri], out, rng.standard_normal((3, 4, 3)), rng.random((3, 4, 3))),
        FuzzyModel([gauss, tri], out, np.full((4, 3), math.nan)),
        FuzzyModel([tri, gauss], out, np.where(rng.random((3, 4)) < 0.5, math.nan, 1.0 / 3.0)),
    ]
    for model in models:
        assert same_file(tmp_path, save_model, oracles.save_model, model)
