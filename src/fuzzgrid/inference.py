"""Rule-grid fuzzy models and center-average inference.

A model is a dense grid of rule cells over the cross product of the
input partitions. Each cell is either empty or holds a conclusion (a
real output value) plus the degree that produced it. Inference combines
the active cells with the product t-norm and defuzzifies by the center
average f(x) = sum(w * c) / sum(w) over non-empty cells.

Coverage gaps are a first-class result: when every active cell is empty,
infer returns None instead of raising, because gap geography is one of
the things the benchmark measures.
"""

from __future__ import annotations

import math

import numpy as np

from .membership import Partition, activations


class FuzzyModel:
    """Grid of rules over d input partitions and one output partition.

    conclusions and degrees are dense float arrays of shape
    (p1.n, ..., pd.n); NaN marks an empty cell.
    """

    def __init__(self, input_partitions, output_partition, conclusions, degrees=None):
        self.input_partitions = list(input_partitions)
        self.output_partition = output_partition
        shape = tuple(p.n for p in self.input_partitions)
        conclusions = np.asarray(conclusions, dtype=float)
        if conclusions.shape != shape:
            raise ValueError(
                f"conclusion grid shape {conclusions.shape} does not match partitions {shape}"
            )
        if degrees is None:
            degrees = np.where(np.isnan(conclusions), np.nan, 1.0)
        else:
            degrees = np.asarray(degrees, dtype=float)
            if degrees.shape != shape:
                raise ValueError("degree grid shape does not match partitions")
        self.conclusions = conclusions
        self.degrees = degrees

    @property
    def shape(self):
        return self.conclusions.shape

    @property
    def dim(self):
        return len(self.input_partitions)

    def filled_mask(self) -> np.ndarray:
        return ~np.isnan(self.conclusions)

    def rule_count(self) -> int:
        return int(self.filled_mask().sum())

    def empty_count(self) -> int:
        return int(self.conclusions.size) - self.rule_count()

    def weight_grid(self, x) -> np.ndarray:
        """Product-t-norm activation weight of every cell for input x.

        Coordinates are clamped into each partition's range first, so
        out-of-range queries resolve to the nearest edge region instead
        of fading to nothing. Non-finite coordinates raise ValueError.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) != self.dim:
            raise ValueError(f"expected {self.dim} inputs, got {x.size}")
        if not np.isfinite(x).all():
            raise ValueError(f"inputs must be finite, got {tuple(x.tolist())}")
        return activations(self.input_partitions, x[None, :]).reshape(self.shape)


def infer(model: FuzzyModel, x):
    """Center-average output for x, or None on a coverage gap."""
    w = model.weight_grid(x)
    mask = model.filled_mask()
    den = float(w[mask].sum())
    if den <= 0.0:
        return None
    num = float((w[mask] * model.conclusions[mask]).sum())
    return num / den


def rule_diff(a: FuzzyModel, b: FuzzyModel) -> dict:
    """Cell-wise rule-base comparison of two same-shaped models.

    A cell counts as changed when both models fill it but the conclusions
    fall into different output sets (argmax membership on the output
    partition). Cells empty in both models are not counted at all.
    """
    if a.shape != b.shape:
        raise ValueError(f"rule grid shapes differ: {a.shape} vs {b.shape}")
    fa, fb = a.filled_mask(), b.filled_mask()
    both = fa & fb
    sa = a.output_partition.best(a.conclusions[both])
    sb = b.output_partition.best(b.conclusions[both])
    changed = int(np.count_nonzero(sa != sb))
    return {
        "unchanged": int(np.count_nonzero(both)) - changed,
        "changed": changed,
        "only_a": int(np.count_nonzero(fa & ~fb)),
        "only_b": int(np.count_nonzero(fb & ~fa)),
    }


# ---------------------------------------------------------------------------
# plain-text serialization

def _format_partition(role: str, p: Partition) -> str:
    return (
        f"{role} {p.kind} {p.lo:.17g} {p.hi:.17g} {p.n} {p.width_factor:.17g}"
    )


def _parse_partition(line: str) -> tuple[str, Partition]:
    parts = line.split()
    if len(parts) != 6 or parts[0] not in ("input", "output"):
        raise ValueError(f"bad partition header line: {line!r}")
    role, kind, lo, hi, n, wf = parts
    return role, Partition(float(lo), float(hi), int(n), kind, float(wf))


def save_model(model: FuzzyModel, path) -> None:
    """Write a model as text: partition headers, then one line per rule.

    Rule lines carry the cell indices, the conclusion, and the degree,
    whitespace separated, with 17 significant digits so that loading
    reproduces the exact floats.
    """
    lines = ["# fuzzgrid model"]
    for p in model.input_partitions:
        lines.append(_format_partition("input", p))
    lines.append(_format_partition("output", model.output_partition))
    for idx in np.ndindex(model.shape):
        c = model.conclusions[idx]
        if np.isnan(c):
            continue
        cells = " ".join(str(i) for i in idx)
        lines.append(f"{cells} {float(c):.17g} {float(model.degrees[idx]):.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> FuzzyModel:
    """Read a model written by save_model.

    Malformed files raise ValueError: a rule line names a cell outside
    the grid, names a cell an earlier line already filled, or carries a
    conclusion or degree that is not finite.
    """
    inputs = []
    output = None
    body = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("input ") or line.startswith("output "):
                if body:
                    raise ValueError("partition header after rule lines")
                role, p = _parse_partition(line)
                if role == "input":
                    inputs.append(p)
                elif output is not None:
                    raise ValueError("more than one output partition")
                else:
                    output = p
            else:
                body.append((line_no, line))
    if not inputs or output is None:
        raise ValueError("model file lacks partition headers")
    shape = tuple(p.n for p in inputs)
    conclusions = np.full(shape, np.nan)
    degrees = np.full(shape, np.nan)
    d = len(inputs)
    for line_no, line in body:
        parts = line.split()
        if len(parts) != d + 2:
            raise ValueError(f"bad rule line: {line!r}")
        idx = tuple(int(v) for v in parts[:d])
        for i, p in zip(idx, inputs):
            if not 0 <= i < p.n:
                raise ValueError(f"cell index {idx} out of range for grid {shape}")
        conclusion, degree = float(parts[d]), float(parts[d + 1])
        if not (math.isfinite(conclusion) and math.isfinite(degree)):
            raise ValueError(
                f"line {line_no}: conclusion and degree must be finite: {line!r}"
            )
        if not np.isnan(conclusions[idx]):
            raise ValueError(f"line {line_no}: cell {idx} appears twice")
        conclusions[idx] = conclusion
        degrees[idx] = degree
    return FuzzyModel(inputs, output, conclusions, degrees)
