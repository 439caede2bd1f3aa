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

from .membership import TRIANGULAR, Partition, _check_count


class FuzzyModel:
    """Grid of rules over d input partitions and one output partition.

    conclusions and degrees are dense float arrays of shape
    (p1.n, ..., pd.n); NaN marks an empty cell, infinities are rejected.
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
        if np.isinf(conclusions).any() or np.isinf(degrees).any():
            raise ValueError("conclusions and degrees must be finite, or NaN in an empty cell")
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

    def outputs(self, axes) -> np.ndarray:
        """Center-average output on the grid spanned by axes, NaN at gaps.

        axes holds one 1-D coordinate array per input. Each is clamped into
        its partition's range, so out-of-range queries resolve to the
        nearest edge region instead of fading to nothing. An axis count
        other than the input count raises ValueError. The degrees of the
        clamped axes go to center_average.
        """
        if len(axes) != self.dim:
            raise ValueError(f"expected {self.dim} axes, got {len(axes)}")
        return self.center_average(
            [p.degrees(np.clip(a, p.lo, p.hi)) for p, a in zip(self.input_partitions, axes)]
        )

    def center_average(self, mats) -> np.ndarray:
        """The output grid from one (points, sets) degree matrix per input.

        mats[i] holds the degrees of input i's clamped grid points, as
        outputs computes them. A two-input grid of triangular partitions
        with at least three points per axis sums only each point's support
        window, 2 or 3 sets wide on every axis (_window_sums). Every other grid
        (gaussian or mixed kinds, other input counts, one or two points on
        an axis) takes one matrix product per axis (_contract).
        """
        mask = self.filled_mask()
        tables = (np.where(mask, self.conclusions, 0.0), mask.astype(float))
        # The window sum keeps the bits of an einsum over every cell, which
        # the reference heatmaps in perfbench pin; at one or two points on
        # an axis the einsum sums in another order.
        if (
            self.dim == 2
            and min(map(len, mats)) > 2
            and all(p.kind == TRIANGULAR for p in self.input_partitions)
        ):
            num, den = _window_sums(mats, *_support_windows(mats), tables)
        else:
            num, den = (_contract(mats, t) for t in tables)
        return np.divide(num, den, out=np.full(den.shape, np.nan), where=den > 0.0)


def _contract(mats, table):
    """The sum over cells c of (mats[0][:, c[0]] x ... x mats[-1][:, c[-1]]) * table[c].

    mats holds one (points, sets) degree matrix per input; the result has
    one axis of points per input. Each step contracts the table's first
    axis with one matrix product and appends that input's points as the
    last axis.
    """
    for m in mats:
        table = (table.reshape(len(table), -1).T @ m.T).reshape(table.shape[1:] + (len(m),))
    return table


def _support_windows(mats):
    """The first nonzero column of each row of each degree matrix, and the window width.

    A matrix's width is the widest span from a row's first to its last
    nonzero column. Rounded centers can give a third nonzero triangular
    degree, so it is measured, not assumed.
    """
    firsts, widths = [], []
    for m in mats:
        nonzero = m != 0.0
        first = nonzero.argmax(axis=1)
        span = m.shape[1] - first - nonzero[:, ::-1].argmax(axis=1)
        firsts.append(first)
        widths.append(int(span.max(where=nonzero.any(axis=1), initial=0)))
    return firsts, widths


def _window_sums(mats, firsts, widths, tables):
    """_contract of each table on a two-input grid, over the cells of the
    support windows only.

    A cell outside a point's window adds an exact zero, which never
    changes a float sum. The window's terms are (wx * wy) * table, added
    to a zero start in C order of the cells. With numpy 2.4 that is the
    order of np.einsum over every cell for two inputs and at least three
    points per axis, up to 8192 cells (3276 when the first input has two
    sets), so the sums are bit-identical to the einsum's there. With more
    cells the einsum's buffered reduction regroups some of its sums, and
    the two differ in the last bit: at most 4e-16 of the sum of the
    terms' magnitudes in random tests. _contract's matrix products group
    their sums in yet other ways.
    """
    rx, ry = (np.arange(len(m)) for m in mats)
    sx, sy = (np.minimum(f, m.shape[1] - w) for m, f, w in zip(mats, firsts, widths))
    sums = [np.zeros((len(rx), len(ry))) for _ in tables]
    for cx in (sx + i for i in range(widths[0])):
        wx = mats[0][rx, cx][:, None]
        for cy in (sy + j for j in range(widths[1])):
            weight = wx * mats[1][ry, cy]
            for total, table in zip(sums, tables):
                # one axis at a time: a flat index over the grid would cost
                # as much memory as another sum
                table = table.take(cx, axis=0).take(cy, axis=1)
                table *= weight
                total += table
    return sums


def infer(model: FuzzyModel, x):
    """Center-average output for x, or None on a coverage gap.

    x is clamped as in FuzzyModel.outputs; non-finite x raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) != model.dim:
        raise ValueError(f"expected {model.dim} inputs, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError(f"inputs must be finite, got {tuple(x.tolist())}")
    value = float(model.outputs(x[:, None]).flat[0])
    return None if math.isnan(value) else value


def rule_diff(a: FuzzyModel, b: FuzzyModel) -> dict:
    """Cell-wise rule-base comparison of two same-shaped models.

    A cell counts as changed when both models fill it but the conclusions
    fall into different output sets (argmax membership on the output
    partition). Cells empty in both models are not counted at all. This
    is where a pair is found comparable: grid shapes, input ranges, or
    output partitions of different ranges or set counts raise ValueError,
    since their cells or set indices do not compare.
    """
    if a.shape != b.shape:
        raise ValueError(f"rule grid shapes differ: {a.shape} vs {b.shape}")
    for pa, pb in zip(a.input_partitions, b.input_partitions):
        if not pa.same_axis(pb):
            raise ValueError(f"input domains differ: [{pa.lo}, {pa.hi}] vs [{pb.lo}, {pb.hi}]")
    pa, pb = a.output_partition, b.output_partition
    if not (pa.same_axis(pb) and pa.n == pb.n):
        raise ValueError(f"output partitions differ: {pa!r} vs {pb!r}")
    fa, fb = a.filled_mask(), b.filled_mask()
    both = fa & fb
    shared = int(np.count_nonzero(both))
    sa = pa.best(a.conclusions[both])
    sb = pb.best(b.conclusions[both])
    changed = int(np.count_nonzero(sa != sb))
    return {
        "unchanged": shared - changed,
        "changed": changed,
        "only_a": int(np.count_nonzero(fa)) - shared,
        "only_b": int(np.count_nonzero(fb)) - shared,
    }


# ---------------------------------------------------------------------------
# plain-text serialization

# The most rule cells, and output sets, a model file may describe: its two
# dense float grids then take at most 160 MB.
MAX_MODEL_CELLS = 10**7


def check_model_size(sizes, output_sets) -> None:
    """Raise ValueError when a grid of sizes[i] sets on input i, or
    output_sets output sets, is larger than MAX_MODEL_CELLS.

    A count that is not an integer raises ValueError. Counts below 1 count
    as 1: a count below 2, which Partition rejects, must not hide a huge one.
    """
    *sizes, output_sets = [_check_count("set count", n) for n in (*sizes, output_sets)]
    if max(math.prod(max(n, 1) for n in sizes), output_sets) > MAX_MODEL_CELLS:
        raise ValueError(
            f"a model of {' x '.join(map(str, sizes))} input sets and {output_sets} "
            f"output sets exceeds the limit of {MAX_MODEL_CELLS} cells"
        )


def _format_partition(role: str, p: Partition) -> str:
    return (
        f"{role} {p.kind} {p.lo:.17g} {p.hi:.17g} {p.n} {p.width_factor:.17g}"
    )


def _parse_partition(line_no: int, line: str) -> tuple[str, tuple]:
    """The role and the Partition arguments of the header line at line_no."""
    parts = line.split()
    if len(parts) != 6 or parts[0] not in ("input", "output"):
        raise ValueError(f"line {line_no}: bad partition header line: {line!r}")
    role, kind, lo, hi, n, wf = parts
    try:
        return role, (float(lo), float(hi), int(n), kind, float(wf))
    except ValueError as e:
        raise ValueError(f"line {line_no}: {e}") from None


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
    filled = model.filled_mask()
    # argwhere and boolean indexing both walk the grid in C order
    for idx, c, d in zip(
        np.argwhere(filled).tolist(),
        model.conclusions[filled].tolist(),
        model.degrees[filled].tolist(),
    ):
        cells = " ".join(map(str, idx))
        lines.append(f"{cells} {c:.17g} {d:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> FuzzyModel:
    """Read a model written by save_model.

    Malformed files raise ValueError. A header or rule line that does not
    parse names its file line ("line N: ..."), as does a header after a
    rule line, a rule line that names a cell outside the grid or a cell
    an earlier line already filled, or one that carries a conclusion or
    degree that is not finite. The file as a whole must have at least one
    input header and exactly one output header, and its headers must not
    describe a grid of more than MAX_MODEL_CELLS cells or an output
    partition of more sets (checked before anything is allocated).
    """
    inputs, outputs, body = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not line.startswith(("input ", "output ")):
                body.append((line_no, line))
            elif body:
                raise ValueError(f"line {line_no}: partition header after rule lines")
            else:
                role, args = _parse_partition(line_no, line)
                (inputs if role == "input" else outputs).append(args)
    if len(outputs) > 1:
        raise ValueError("more than one output partition")
    if not inputs or not outputs:
        raise ValueError("model file lacks partition headers")
    check_model_size([args[2] for args in inputs], outputs[0][2])
    inputs = [Partition(*args) for args in inputs]
    output = Partition(*outputs[0])
    shape = tuple(p.n for p in inputs)
    conclusions = np.full(shape, np.nan)
    degrees = np.full(shape, np.nan)
    d = len(inputs)
    for line_no, line in body:
        try:
            parts = line.split()
            if len(parts) != d + 2:
                raise ValueError(f"bad rule line: {line!r}")
            idx = tuple(int(v) for v in parts[:d])
            if not all(0 <= i < n for i, n in zip(idx, shape)):
                raise ValueError(f"cell index {idx} out of range for grid {shape}")
            conclusion, degree = float(parts[d]), float(parts[d + 1])
            if not (math.isfinite(conclusion) and math.isfinite(degree)):
                raise ValueError(f"conclusion and degree must be finite: {line!r}")
            if not np.isnan(conclusions[idx]):
                raise ValueError(f"cell {idx} appears twice")
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
        conclusions[idx] = conclusion
        degrees[idx] = degree
    return FuzzyModel(inputs, output, conclusions, degrees)
