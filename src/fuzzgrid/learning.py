"""Three ways to learn a rule grid from (x, z) examples.

wm_learn keeps, per cell, the single best example and quantizes its
output to the nearest output-set center. cluster_learn averages every
example into every cell it touches, weighted by membership. The
neuro-fuzzy learner starts from either of two initializations and tunes
the conclusions by per-example gradient descent while the membership
functions stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .inference import FuzzyModel
from .membership import GAUSSIAN, TRIANGULAR, Partition, activations

EMPTY_WEIGHT_THRESHOLD = 1e-12

INIT_ZERO = "zero"
INIT_CLUSTER = "cluster"
INITS = (INIT_ZERO, INIT_CLUSTER)


@dataclass(frozen=True)
class NeuroFuzzyConfig:
    alpha: float = 0.1
    epochs: int = 50
    init: str = INIT_CLUSTER

    def __post_init__(self):
        # alpha = 0 is allowed so that "no learning" degenerates to the
        # initialization. A weight row w is non-negative and sums to 1, so
        # |w|^2 <= 1 and alpha <= 2 keeps every step c - alpha (w.c - z) w
        # non-expansive; larger rates can diverge to inf and NaN.
        if not 0 <= self.alpha <= 2:
            raise ValueError(f"alpha must be in [0, 2], got {self.alpha}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.init not in INITS:
            raise ValueError(f"unknown init mode {self.init!r}")


def _check_data(data: Dataset, inputs) -> None:
    """Check that data is non-empty and has one input per partition."""
    if not len(data):
        raise ValueError("cannot learn from an empty dataset")
    if data.dim != len(inputs):
        raise ValueError(
            f"examples have {data.dim} inputs but there are {len(inputs)} input partitions"
        )


def _check_kind(partitions, kind, what):
    for p in partitions:
        if p.kind != kind:
            raise ValueError(f"{what} requires {kind} partitions, got {p.kind}")


def wm_learn(data: Dataset, inputs, output: Partition) -> FuzzyModel:
    """Best-example rule extraction on triangular partitions.

    Each example nominates the cell given by its per-variable
    maximum-membership sets, with an implication degree equal to the
    product of its input memberships in those sets. Within a cell the
    highest-degree example wins (earliest example on exact ties) and its
    output is quantized to the center of its best output set.
    """
    _check_data(data, inputs)
    _check_kind(list(inputs) + [output], TRIANGULAR, "wm_learn")
    shape = tuple(p.n for p in inputs)
    rows = np.arange(len(data))
    idx = []
    degree = np.ones(len(data))
    for p, x in zip(inputs, data.X.T):
        i = p.best(x)
        degree = degree * p.degrees(x)[rows, i]
        idx.append(i)
    cells = np.ravel_multi_index(idx, shape)
    # Sort by cell, then by falling degree; lexsort is stable, so the
    # earliest example leads each run of equal degrees.
    order = np.lexsort((-degree, cells))
    winners = order[np.diff(cells[order], prepend=-1) != 0]
    conclusions = np.full(shape, np.nan)
    degrees = np.full(shape, np.nan)
    conclusions.flat[cells[winners]] = output.centers[output.best(data.z[winners])]
    degrees.flat[cells[winners]] = degree[winners]
    return FuzzyModel(inputs, output, conclusions, degrees)


def cluster_learn(data: Dataset, inputs, output: Partition) -> FuzzyModel:
    """Membership-weighted averaging of all examples into each cell.

    With triangular partitions each example only reaches its local
    neighbourhood of cells; gaussian partitions give every example a
    nonzero weight everywhere, so no cell stays empty. Cells whose total
    weight never exceeds a small threshold are left empty rather than
    divided by almost-zero.
    """
    _check_data(data, inputs)
    kinds = {p.kind for p in inputs}
    if len(kinds) != 1:
        raise ValueError("input partitions must all share one membership kind")
    d = len(inputs)
    mats = [p.degrees(x) for p, x in zip(inputs, data.X.T)]
    zs = data.z
    letters = "abcdefghij"[:d]
    lhs = ",".join("k" + c for c in letters)
    den = np.einsum(f"{lhs}->{letters}", *mats)
    num = np.einsum(f"{lhs},k->{letters}", *mats, zs)
    conclusions = np.full(tuple(p.n for p in inputs), np.nan)
    ok = den > EMPTY_WEIGHT_THRESHOLD
    conclusions[ok] = num[ok] / den[ok]
    return FuzzyModel(inputs, output, conclusions)


def neurofuzzy_learn(
    data: Dataset, inputs, output: Partition, cfg: NeuroFuzzyConfig
) -> FuzzyModel:
    """Gradient tuning of conclusions on gaussian partitions.

    Initialization is either the cluster model or a flat grid at the
    output midpoint. Then cfg.epochs passes run over the dataset in
    order, updating all conclusions after every single example:

        c_r <- c_r - alpha * (f(x) - z) * w_r / sum(w)

    The per-example scheduling is deliberate; it is what makes large
    learning rates chase individual noisy examples. It is kept, but run
    blockwise (see _sweep), so the result matches the per-example loop to
    rounding rather than bit for bit.
    """
    _check_data(data, inputs)
    _check_kind(inputs, GAUSSIAN, "neurofuzzy_learn")
    if cfg.init == INIT_CLUSTER:
        init = cluster_learn(data, inputs, output)
        conclusions = init.conclusions.copy()
    else:
        shape = tuple(p.n for p in inputs)
        conclusions = np.full(shape, (output.lo + output.hi) / 2.0)
    flat_idx = np.flatnonzero(~np.isnan(conclusions.ravel()))
    c = conclusions.ravel()[flat_idx]

    weights, targets = _tuning_weights(data, inputs, flat_idx)
    c = _sweep(weights, targets, c, cfg.alpha, cfg.epochs)

    out = np.full(conclusions.size, np.nan)
    out[flat_idx] = c
    return FuzzyModel(inputs, output, out.reshape(conclusions.shape))


# Rows per block of _sweep. The block build costs O(rows * _BLOCK * cells)
# once per call and each epoch costs a few numpy calls per block, so small
# blocks suit one-epoch runs on many rows and large ones many epochs on few.
_BLOCK = 32


def _sweep(W, targets, c, alpha: float, epochs: int):
    """epochs passes of c <- c - alpha * (w @ c - z) * w over the rows w of
    W and their targets z, in order; returns the final c.

    Within a block of rows W_b the residuals r the loop would compute
    satisfy (I + alpha * tril(W_b W_b^T, -1)) r = W_b c - z_b, c being the
    value at the start of the block, and the block's updates sum to
    -alpha * W_b^T r. So each block is one matrix K_b = alpha * (I + alpha
    * tril(W_b W_b^T, -1))^-1, built once, and a pass applies
    c <- c - W_b^T K_b (W_b c - z_b) block by block.
    """
    if epochs == 0 or alpha == 0.0:
        return c
    blocks = []
    for s in range(0, len(W), _BLOCK):
        Wb = W[s:s + _BLOCK]
        T = np.tril(Wb.dot(Wb.T), -1)
        T *= alpha
        np.fill_diagonal(T, 1.0)
        K = np.linalg.inv(T)
        K *= alpha
        blocks.append((Wb, K, targets[s:s + _BLOCK]))
    c = c.copy()
    for _ in range(epochs):
        for Wb, K, zb in blocks:
            c -= K.dot(Wb.dot(c) - zb).dot(Wb)
    return c


def _tuning_weights(data: Dataset, inputs, flat_idx):
    """Normalized clamped activations of the filled cells, one row per example.

    Weights never change across epochs, so they are built once. Examples
    whose filled cells all have zero weight are dropped. Returns a
    C-contiguous (kept examples, len(flat_idx)) array and the kept
    targets as a float array.
    """
    W = activations(inputs, data.X)
    if len(flat_idx) < W.shape[1]:
        # The fancy index gives a strided copy; its row sums differ from
        # sums over contiguous rows in the last bit.
        W = np.ascontiguousarray(W[:, flat_idx])
    s = W.sum(axis=1)
    targets = data.z
    keep = s > 0.0
    if not keep.all():
        W, s, targets = W[keep], s[keep], targets[keep]
    W /= s[:, None]
    return W, targets
