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

import functools
from dataclasses import dataclass

import numpy as np

from .inference import FuzzyModel, rule_diff
from .membership import Partition, _check_count


def plane_truth(x, y):
    """The benchmark's generating relation, on floats or broadcast arrays."""
    return x + y


# The largest grid resolution. A diff keeps at most five resolution x
# resolution float arrays alive at once (one model's output while the
# other's numerator and denominator are summed, with a window term's
# weights and table values on a triangular grid): about 40 MB at
# resolution 1000 and 0.7 GB at 4096, where 2**24 points take 128 MB per
# array. The grid cache (_evaluation) keeps (n + 1) * resolution 8-byte
# numbers per partition of n sets, 0.33 MB for 9 sets at 4096.
# At resolution 4096 (2 vCPUs, numpy 2.4.6) `fuzzgrid diff` of two 9-set
# triangular models peaked at 799 MB resident and of two 9-set gaussian
# ones at 609 MB; `fuzzgrid eval` of one such model at 671 MB and 432 MB.
MAX_RESOLUTION = 4096


# Eight entries hold the 9-set triangular and gaussian axes of the ladder,
# or all 8 partitions of partition-sweep, at one resolution.
@functools.lru_cache(maxsize=8)
def _evaluation(p: Partition, resolution: int):
    """The resolution-point grid axis over p's range and its degree
    matrix, both read-only. Every point of the axis lies in [lo, hi], so
    the matrix is that of the clamped axis, as FuzzyModel.outputs takes.

    Keyed by value, so equal partitions (the clean and noisy models', and
    both inputs of a square domain) share one entry. The cache keeps the
    last 8 entries, each (n + 1) * resolution 8-byte numbers for n sets.
    """
    axis = np.linspace(p.lo, p.hi, resolution)
    mat = p.degrees(axis)
    axis.flags.writeable = mat.flags.writeable = False
    return axis, mat


def grid_axes(model: FuzzyModel, resolution: int):
    """The x and y axes of the resolution x resolution grid over model's domain.

    model.outputs(grid_axes(model, resolution)) is the model on that grid:
    rows index x, columns index y, NaN at coverage gaps. The axes are
    read-only and shared by every model with equal partitions.
    """
    if model.dim != 2:
        raise ValueError("grid evaluation supports 2-input models only")
    resolution = _check_count("resolution", resolution, 2, MAX_RESOLUTION)
    return tuple(_evaluation(p, resolution)[0] for p in model.input_partitions)


def _grid(model: FuzzyModel, resolution: int) -> np.ndarray:
    """model.outputs(grid_axes(model, resolution)), bit for bit, from the
    cached degree matrices."""
    return model.center_average([_evaluation(p, resolution)[1] for p in model.input_partitions])


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
    values = grid[~np.isnan(grid)]
    if values.size:
        rmse = float(np.sqrt(np.mean(values**2)))
        max_abs = float(np.max(np.abs(values)))
    else:
        rmse = None
        max_abs = None
    gap_fraction = 1.0 - values.size / grid.size
    return rmse, max_abs, gap_fraction


def difference_surface(clean: FuzzyModel, noisy: FuzzyModel, resolution: int = 50) -> DiffReport:
    """noisy minus clean on a shared grid, plus rule-base corruption.

    A pair that rule_diff refuses (other grid shapes, input domains or
    output partitions) raises before any grid axis is built or evaluated.
    """
    rule_changes = rule_diff(clean, noisy)
    xs, ys = grid_axes(clean, resolution)
    # noisy's axes are clean's: the same ranges at the same resolution
    diff = _grid(noisy, resolution)
    diff -= _grid(clean, resolution)
    rmse, max_abs, gap_fraction = _aggregate(diff)
    return DiffReport(
        xs=xs,
        ys=ys,
        diff_grid=diff,
        rmse=rmse,
        max_abs=max_abs,
        gap_fraction=gap_fraction,
        rule_changes=rule_changes,
    )


def model_error(model: FuzzyModel, resolution: int = 50) -> dict:
    """Fit against plane_truth on the same grid protocol."""
    xs, ys = grid_axes(model, resolution)
    errors = _grid(model, resolution)
    errors -= plane_truth(xs[:, None], ys[None, :])
    rmse, max_abs, gap_fraction = _aggregate(errors)
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
