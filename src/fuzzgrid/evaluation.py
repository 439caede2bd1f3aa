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

import math
from dataclasses import dataclass

import numpy as np

from .inference import FuzzyModel, rule_diff


def plane_truth(x, y):
    """The benchmark's generating relation, on floats or broadcast arrays."""
    return x + y


def grid_axes(model: FuzzyModel, resolution: int):
    if model.dim != 2:
        raise ValueError("grid evaluation supports 2-input models only")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    px, py = model.input_partitions
    xs = np.linspace(px.lo, px.hi, resolution)
    ys = np.linspace(py.lo, py.hi, resolution)
    return xs, ys


def grid_values(model: FuzzyModel, resolution: int) -> np.ndarray:
    """Model output on a regular grid, NaN at coverage gaps.

    Rows index x, columns index y. The arithmetic is the vectorized twin
    of infer(): center average over non-empty cells.
    """
    xs, ys = grid_axes(model, resolution)
    px, py = model.input_partitions
    mx = px.degrees(xs)
    my = py.degrees(ys)
    mask = model.filled_mask()
    conc = np.where(mask, model.conclusions, 0.0)
    num = np.einsum("ai,bj,ij->ab", mx, my, conc)
    den = np.einsum("ai,bj,ij->ab", mx, my, mask.astype(float))
    out = np.full((resolution, resolution), np.nan)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return out


@dataclass
class DiffReport:
    resolution: int
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
        resolution=resolution,
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
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write("x,y,diff\n")
        ys = [f"{y:.17g}" for y in report.ys.tolist()]
        for x, row in zip(report.xs.tolist(), report.diff_grid.tolist()):
            for y, d in zip(ys, row):
                text = "NaN" if math.isnan(d) else f"{d:.17g}"
                fh.write(f"{x:.17g},{y},{text}\n")
