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


# The largest grid resolution. A diff keeps at most five resolution x
# resolution float arrays alive at once (one model's output while the
# other's numerator and denominator are summed, with a window term's
# weights and table values on a triangular grid): about 40 MB at
# resolution 1000 and 0.7 GB at 4096, where 2**24 points take 128 MB per
# array. At resolution 4096 a diff of two 9-set triangular models peaked
# at 800 MB resident, one of two 9-set gaussian models at 608 MB, and an
# eval of one gaussian model at 560 MB (2 vCPUs, numpy 2.4.6).
MAX_RESOLUTION = 4096


def grid_axes(model: FuzzyModel, resolution: int):
    """The x and y axes of the resolution x resolution grid over model's domain.

    model.outputs(grid_axes(model, resolution)) is the model on that grid:
    rows index x, columns index y, NaN at coverage gaps.
    """
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
    diff = noisy.outputs((xs, ys)) - clean.outputs((xs, ys))
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


def model_error(model: FuzzyModel, resolution: int = 50) -> dict:
    """Fit against plane_truth on the same grid protocol."""
    xs, ys = grid_axes(model, resolution)
    target = plane_truth(xs[:, None], ys[None, :])
    rmse, max_abs, gap_fraction = _aggregate(model.outputs((xs, ys)) - target)
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
