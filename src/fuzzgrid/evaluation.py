"""Clean-vs-noisy comparison surfaces and fit metrics.

The central instrument is the difference surface: train one model on
clean data and one on noisy data, evaluate both on the same dense grid,
and subtract. Its RMS and peak tell how far noise deformed the learned
relation; the rule-base diff counts how many rules it corrupted.

Grid points where either model has no active rule are excluded from the
error aggregates and reported as a gap fraction instead. Painting over
them would hide exactly the pathology worth measuring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import FuzzyModel, rule_diff


def plane_truth(x, y):
    """The benchmark's generating relation, on floats or broadcast arrays."""
    return x + y


# The largest grid resolution. A diff keeps about six resolution x
# resolution float arrays alive at once (each model's numerator, denominator
# and output, and their difference): about 45 MB at resolution 1000, so
# about 0.8 GB at 4096, where 2**24 points take 128 MB per array.
MAX_RESOLUTION = 4096


def grid_axes(model: FuzzyModel, resolution: int):
    if model.dim != 2:
        raise ValueError("grid evaluation supports 2-input models only")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}, got {resolution}")
    px, py = model.input_partitions
    xs = np.linspace(px.lo, px.hi, resolution)
    ys = np.linspace(py.lo, py.hi, resolution)
    return xs, ys


def grid_values(model: FuzzyModel, resolution: int) -> np.ndarray:
    """Model output on a regular grid, NaN at coverage gaps.

    Rows index x, columns index y. The values are FuzzyModel.outputs, the
    same center average that infer() takes at one point.
    """
    return model.outputs(grid_axes(model, resolution))


@dataclass
class DiffReport:
    xs: np.ndarray
    ys: np.ndarray
    diff_grid: np.ndarray
    rmse: float | None
    max_abs: float | None
    gap_fraction: float
    rule_changes: dict


def _aggregate(grid: np.ndarray):
    valid = ~np.isnan(grid)
    if valid.any():
        rmse = float(np.sqrt(np.mean(grid[valid] ** 2)))
        max_abs = float(np.max(np.abs(grid[valid])))
    else:
        rmse = None
        max_abs = None
    gap_fraction = float(1.0 - valid.mean())
    return rmse, max_abs, gap_fraction


def difference_surface(clean: FuzzyModel, noisy: FuzzyModel, resolution: int = 50) -> DiffReport:
    """noisy minus clean on a shared grid, plus rule-base corruption."""
    for pa, pb in zip(clean.input_partitions, noisy.input_partitions):
        if not pa.same_axis(pb):
            raise ValueError(
                f"input domains differ: [{pa.lo}, {pa.hi}] vs [{pb.lo}, {pb.hi}]"
            )
    xs, ys = grid_axes(clean, resolution)
    diff = grid_values(noisy, resolution) - grid_values(clean, resolution)
    rmse, max_abs, gap_fraction = _aggregate(diff)
    return DiffReport(
        xs=xs,
        ys=ys,
        diff_grid=diff,
        rmse=rmse,
        max_abs=max_abs,
        gap_fraction=gap_fraction,
        rule_changes=rule_diff(clean, noisy),
    )


def model_error(model: FuzzyModel, truth, resolution: int = 50) -> dict:
    """Fit against an analytic ground truth on the same grid protocol.

    truth is called once, on broadcast arrays: x of shape (resolution, 1)
    and y of shape (1, resolution).
    """
    xs, ys = grid_axes(model, resolution)
    values = grid_values(model, resolution)
    target = truth(xs[:, None], ys[None, :])
    rmse, max_abs, gap_fraction = _aggregate(values - target)
    return {"rmse": rmse, "max_abs": max_abs, "gap_fraction": gap_fraction}


def write_diff_report(report: DiffReport, path, metadata: dict | None = None) -> None:
    """Report CSV: '# key=value' metadata lines, then x,y,diff rows.

    Gap points are written as literal NaN so downstream plotting keeps
    the holes visible.
    """
    # One x row per write: a line per y, each "x,y,diff". The row template
    # holds every y once and a '%.17g' slot for each diff; the x text is
    # joined in front of every line. '%.17g' renders NaN as 'nan', and no
    # number contains those letters, so one replace gives the literal NaN.
    lines = [""] + [f",{y:.17g},%.17g\n" for y in report.ys.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write("x,y,diff\n")
        for x, row in zip(report.xs.tolist(), report.diff_grid.tolist()):
            fh.write((f"{x:.17g}".join(lines) % tuple(row)).replace("nan", "NaN"))
