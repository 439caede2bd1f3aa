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
    # In place: z @ W would sum in BLAS order and change the last bits, and
    # W * z[:, None] would allocate a second (N, cells) array. Targets near
    # the float limit overflow the sums row by row to +-inf, never NaN, and
    # FuzzyModel refuses inf, so the overflow warning is off.
    W = activations(inputs, data.X)
    den = W.sum(axis=0)
    W *= data.z[:, None]
    conclusions = np.full(den.shape, np.nan)
    ok = den > EMPTY_WEIGHT_THRESHOLD
    with np.errstate(over="ignore"):
        num = W.sum(axis=0)
        conclusions[ok] = num[ok] / den[ok]
    return FuzzyModel(inputs, output, conclusions.reshape(tuple(p.n for p in inputs)))


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
    in blocks of examples, and when it costs less (see _powering_pays) as
    one epoch map raised to the cfg.epochs-th power (see _sweep). The
    result matches the per-example loop to rounding rather than bit for
    bit. Raises ValueError when a tuned conclusion is not finite.
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
    # Targets near the float limit can overflow the updates to inf and NaN,
    # and FuzzyModel would read a NaN conclusion as an empty cell.
    with np.errstate(over="ignore", invalid="ignore"):
        c = _sweep(weights, targets, c, cfg.alpha, cfg.epochs)
    if not np.isfinite(c).all():
        raise ValueError("neuro-fuzzy tuning overflowed: a tuned conclusion is not finite")

    out = np.full(conclusions.size, np.nan)
    out[flat_idx] = c
    return FuzzyModel(inputs, output, out.reshape(conclusions.shape))


# Rows per block of _sweep. The block build costs O(rows * _BLOCK * cells)
# once per call and each epoch costs a few numpy calls per block, so small
# blocks suit one-epoch runs on many rows and large ones many epochs on few.
_BLOCK = 32

# The fewest epochs for which _sweep builds the epoch map and powers it.
# Building the map costs about 5 to 10 vector epochs and each step of the
# power one product of cells x cells matrices. With 81 cells (2-vCPU Xeon,
# numpy 2.4 on OpenBLAS) a vector epoch took 0.011 ms at 100 rows and 0.090
# ms at 1000, the map 0.07 and 0.66 ms, a product 0.02 ms: the map breaks even
# near 14 epochs at 100 rows and near 8 at 1000, so below 16 the plain
# blocked sweep runs. From 16 on, _powering_pays also weighs the cells.
_POWER_EPOCHS = 16

# The largest row sum of |K_b| / alpha that _build keeps. Rows that nearly
# repeat at alpha near 2 make K_b alternate in sign instead of decaying: on
# a run of k equal one-hot rows at alpha = 2 the row sum reaches 2k - 1,
# and the block's sums cancel away that many times the rounding. Halving a
# block bounds the growth. On plane data at 1000 rows no block grows past
# this for alpha up to 1.5; at alpha = 2 about 1% of the blocks do with 9
# gaussian sets of width factor 0.5, and about 60% with width factor 0.2.
_GROWTH = 4.0


def _powering_pays(rows: int, cells: int, epochs: int) -> bool:
    """Whether building the epoch map and powering it costs less than
    epochs passes over c; never below _POWER_EPOCHS epochs.

    A pass costs about rows * cells multiply-adds and the numpy calls of
    its blocks, the map rows * cells^2, and each of the bit_length +
    bit_count - 2 products np.linalg.matrix_power makes cells^3, so the
    map pays only when the cells are few against the epochs and rows. The
    weights are multiply-adds of a pass (about 0.7 ns on the host above):
    a block's calls cost about 5000 of them, and a multiply-add in the
    products of the map about a quarter of one, in a power's product a
    fifteenth.
    Fitted to timings at 9 to 900 cells, 100 to 10^4 rows and 16 to 1000
    epochs, where the path chosen was never 1.9 times slower than the other.
    """
    if epochs < _POWER_EPOCHS:
        return False
    one_pass = rows * cells + 5000 * -(-rows // _BLOCK)
    products = epochs.bit_length() + epochs.bit_count() - 2
    powering = rows * cells**2 / 4 + products * cells**3 / 15
    return powering < (epochs - 1) * one_pass


def _sweep(W, targets, c, alpha: float, epochs: int):
    """epochs passes of c <- c - alpha * (w @ c - z) * w over the rows w of
    W and their targets z, in order; returns the final c.

    Within a block of rows W_b the residuals r the loop would compute
    satisfy (I + alpha * tril(W_b W_b^T, -1)) r = W_b c - z_b, c being the
    value at the start of the block, and the block's updates sum to
    -alpha * W_b^T r. So each block is one matrix K_b = alpha * (I + alpha
    * tril(W_b W_b^T, -1))^-1, built once (see _blocks), and a pass applies
    c <- c - W_b^T K_b (W_b c - z_b) block by block.

    A pass is therefore one affine map c <- A c + b, with A the product
    of the blocks' I - W_b^T K_b W_b. When _powering_pays, _sweep turns
    the identity M into [[A, b], [0, 1]] with one pass over its first
    cells rows, and applies np.linalg.matrix_power(M, epochs) to [c; 1]:
    O(log epochs) products of (cells + 1) x (cells + 1) matrices.
    Otherwise it runs epochs passes over c.
    """
    if epochs == 0 or alpha == 0.0:
        return c
    blocks = _blocks(W, targets, alpha)
    if _powering_pays(len(W), len(c), epochs):
        M = np.eye(len(c) + 1)
        _pass(blocks, M[:-1])
        return np.linalg.matrix_power(M, epochs)[:-1].dot(np.append(c, 1.0))
    C = c[:, None].copy()
    for _ in range(epochs):
        _pass(blocks, C)
    return C[:, 0]


def _blocks(W, targets, alpha: float):
    """(W_b, K_b, z_b) for the rows of W in order, in blocks of _BLOCK rows
    and one block of the rows left over.

    The full blocks are a (blocks, _BLOCK, cells) view of W, and all their
    K_b come from one stacked product and one batched inverse (see _build).
    """
    full = len(W) - len(W) % _BLOCK
    stacks = [
        (W[:full].reshape(-1, _BLOCK, W.shape[1]), targets[:full].reshape(-1, _BLOCK)),
        (W[None, full:], targets[None, full:]),
    ]
    blocks = []
    for Ws, zs in stacks:
        if Ws.size:
            for part in _build(Ws, zs, alpha):
                blocks += part
    return blocks


def _build(Ws, zs, alpha: float):
    """For each block of the stack Ws of equal blocks, the blocks that
    replace it: itself, or if its K_b grows past _GROWTH, those of its two
    halves, which are built together for all such blocks of the stack."""
    T = np.matmul(Ws, Ws.transpose(0, 2, 1))
    rows = np.arange(T.shape[1])
    T *= alpha * np.tri(len(rows), k=-1)  # alpha times the strict lower triangle
    T[:, rows, rows] = 1.0
    K = np.linalg.inv(T)
    K *= alpha
    parts = [[block] for block in zip(Ws, K, zs)]
    grown = np.flatnonzero((np.abs(K, out=T).sum(axis=2) > _GROWTH * alpha).any(axis=1))
    if len(grown):
        half = (len(rows) + 1) // 2
        firsts = _build(Ws[grown, :half], zs[grown, :half], alpha)
        seconds = _build(Ws[grown, half:], zs[grown, half:], alpha)
        for i, first, second in zip(grown, firsts, seconds):
            parts[i] = first + second
    return parts


def _pass(blocks, C):
    """One pass of the block update over the columns of C, in place: the
    targets go to the last column only. C = c[:, None] gives the pass over
    c; C = [I | 0], the first cells rows of the identity, gives [A | b]."""
    for Wb, K, zb in blocks:
        R = Wb.dot(C)
        R[:, -1] -= zb
        C -= Wb.T.dot(K.dot(R))
    return C


def _tuning_weights(data: Dataset, inputs, flat_idx):
    """Normalized clamped activations of the filled cells, one row per example.

    Weights never change across epochs, so they are built once. Examples
    whose filled cells all have zero weight are dropped. Returns a
    C-contiguous (kept examples, len(flat_idx)) array and the kept
    targets as a float array.
    """
    X = np.clip(data.X, [p.lo for p in inputs], [p.hi for p in inputs])
    W = activations(inputs, X)
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
