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
from .membership import _check_choice, _check_count, _check_real, _products

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
        if not 0 <= _check_real("alpha", self.alpha) <= 2:
            raise ValueError(f"alpha must be in [0, 2], got {self.alpha}")
        object.__setattr__(self, "epochs", _check_count("epochs", self.epochs, 0))
        _check_choice("init mode", self.init, INITS)


def _check_data(data: Dataset, inputs) -> None:
    """Check that data has one input per partition (Dataset refuses no examples)."""
    if data.dim != len(inputs):
        raise ValueError(
            f"examples have {data.dim} inputs but there are {len(inputs)} input partitions"
        )


def _degrees(data: Dataset, inputs):
    """Each input's degree matrix over data, unclamped and for reading
    only: a read-only dataset keeps them (Dataset.degrees)."""
    return [data.degrees(p, k) for k, p in enumerate(inputs)]


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
    for p, x, deg in zip(inputs, data.X.T, _degrees(data, inputs)):
        # In range the argmax is best's; above hi every degree may be 0,
        # whose argmax is set 0, so rows out of range go through best.
        i = deg.argmax(axis=1)
        out = (x < p.lo) | (x > p.hi)
        if out.any():
            i[out] = p.best(x[out])
        degree = degree * deg[rows, i]
        idx.append(i)
    cells = np.ravel_multi_index(idx, shape)
    conclusions = np.full(shape, np.nan)
    degrees = np.full(shape, np.nan)
    # Each cell's top degree, then the earliest example at that degree.
    top = np.full(conclusions.size, -1.0)
    np.maximum.at(top, cells, degree)
    at_top = degree == top[cells]
    first = np.full(conclusions.size, len(data))
    np.minimum.at(first, cells[at_top], rows[at_top])
    filled = np.flatnonzero(first < len(data))
    conclusions.flat[filled] = output.centers[output.best(data.z[first[filled]])]
    degrees.flat[filled] = top[filled]
    return FuzzyModel(inputs, output, conclusions, degrees)


def cluster_learn(data: Dataset, inputs, output: Partition) -> FuzzyModel:
    """Membership-weighted averaging of all examples into each cell.

    With triangular partitions each example only reaches its local
    neighbourhood of cells; gaussian partitions give every example a
    nonzero weight everywhere, so no cell stays empty. Cells whose total
    weight never exceeds a small threshold are left empty rather than
    divided by almost-zero. Raises ValueError when the weighted sum of a
    filled cell overflows.
    """
    _check_data(data, inputs)
    kinds = {p.kind for p in inputs}
    if len(kinds) != 1:
        raise ValueError("input partitions must all share one membership kind")
    # Targets near the float limit overflow the sums: to inf row by row, and
    # to inf or NaN (inf - inf) in a matrix product. FuzzyModel would read a
    # NaN conclusion as an empty cell, so the check below raises instead.
    with np.errstate(over="ignore", invalid="ignore"):
        if GAUSSIAN in kinds:
            # The weights are products over the inputs, so the sums factor:
            # with A the weights of the cells of all inputs but the last and
            # D the last input's degrees, den = A^T D and num = A^T (D * z).
            *rest, D = _degrees(data, inputs)
            A = _products(rest, len(data))
            den = A.T.dot(D)
            num = A.T.dot(D * data.z[:, None])
        else:
            # Row by row, in place: C02 pins these sums bit for bit against
            # oracles.cluster_grid, and a matrix product adds in another order.
            W = _products(_degrees(data, inputs), len(data))
            den = W.sum(axis=0)
            W *= data.z[:, None]
            num = W.sum(axis=0)
        conclusions = np.full(den.shape, np.nan)
        ok = den > EMPTY_WEIGHT_THRESHOLD
        conclusions[ok] = num[ok] / den[ok]
    if not np.isfinite(conclusions[ok]).all():
        raise ValueError("cluster conclusions must be finite: a weighted sum overflowed")
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
        conclusions = cluster_learn(data, inputs, output).conclusions
    else:
        shape = tuple(p.n for p in inputs)
        conclusions = np.full(shape, (output.lo + output.hi) / 2.0)
    flat_idx = np.flatnonzero(~np.isnan(conclusions.ravel()))
    c = conclusions.flat[flat_idx]

    weights, targets = _tuning_weights(data, inputs, flat_idx)
    # Targets near the float limit can overflow the updates to inf and NaN,
    # and FuzzyModel would read a NaN conclusion as an empty cell.
    with np.errstate(over="ignore", invalid="ignore"):
        c = _sweep(weights, targets, c, cfg.alpha, cfg.epochs)
    if not np.isfinite(c).all():
        raise ValueError("neuro-fuzzy tuning overflowed: a tuned conclusion is not finite")

    conclusions.flat[flat_idx] = c
    return FuzzyModel(inputs, output, conclusions)


# Rows per block of _sweep. The block build costs O(rows * _BLOCK * cells)
# once per call and each epoch costs a few numpy calls per block, so small
# blocks suit one-epoch runs on many rows and large ones many epochs on few.
_BLOCK = 32

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
    epochs passes over c. Never at 1 epoch, where the passes are one pass.

    A pass costs about rows * cells multiply-adds and the numpy calls of
    its blocks, the map rows * cells^2, and each of the bit_length +
    bit_count - 2 products np.linalg.matrix_power makes cells^3, so the
    map pays only when the cells are few against the epochs and rows. The
    weights are multiply-adds of a pass (about 0.7 ns on a 2-vCPU Xeon,
    numpy 2.4 on OpenBLAS): a block's calls cost about 5000 of them, and a
    multiply-add in the products of the map about a quarter of one, in a
    power's product a fifteenth. Since the products follow the bits of
    epochs, the choice is not monotone in epochs.
    Fitted to timings at 9 to 900 cells, 100 to 10^4 rows and 16 to 1000
    epochs, where the path chosen was never 1.9 times slower than the other;
    at 4 to 289 cells, 30 to 3000 rows and 2 to 15 epochs it was more than
    1.3 times slower in 3 or 4 of 315 shapes, and at most 1.62 times.
    """
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
    O(log epochs) products of (cells + 1) x (cells + 1) matrices, at
    any epoch count. Otherwise it runs epochs passes over c.

    A zero row w leaves c as it is on both paths: T_b has an identity row
    and column there, so K_b's are alpha * e_i, W_b^T multiplies that
    residual by 0, and the row never grows K_b. Its target must keep
    alpha * z finite, or that product is 0 * inf = NaN, as in the loop;
    _tuning_weights gives it the target 0.
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


def _blocks(W, z, alpha: float):
    """(W_b, K_b, z_b) for the rows of W in order, in blocks of _BLOCK rows
    and one block of the rows left over.

    The full blocks are a (blocks, _BLOCK, cells) view of W, and all their
    K_b come from one stacked product and one batched triangular inverse
    (see _build); the block left over is built alone.
    """
    full = len(W) - len(W) % _BLOCK
    # The block count, not -1: W has no columns when every cell is empty.
    parts = _build(
        W[:full].reshape(full // _BLOCK, _BLOCK, W.shape[1]), z[:full].reshape(-1, _BLOCK), alpha
    )
    if full < len(W):
        parts += _build(W[None, full:], z[None, full:], alpha)
    return [block for part in parts for block in part]


def _build(Ws, zs, alpha: float):
    """For each block of the stack Ws of equal blocks, the blocks that
    replace it: itself, or if its K_b grows past _GROWTH, those of its two
    halves, which are built together for all such blocks of the stack.

    K_b is alpha times the inverse of the unit lower-triangular T_b = I +
    alpha * tril(W_b W_b^T, -1). All of the stack's T_b come from one
    stacked product, written straight into the padded stack that
    _unit_lower_inverse inverts in place, and the growth check takes |K_b|
    a few blocks at a time. So W, the stack and no other array of the
    stack's size are alive at once. At 1000 rows a third such array took
    the heap past the size at which glibc's malloc hands its top back to
    the system, and every algorithm-ladder trial page-faulted it in again."""
    rows = np.arange(Ws.shape[1])
    X = _padded_stack(len(Ws), len(rows))
    T = X[:, : len(rows), : len(rows)]
    np.matmul(Ws, Ws.transpose(0, 2, 1), out=T)
    T *= alpha * np.tri(len(rows), k=-1)  # alpha times the strict lower triangle
    T[:, rows, rows] = 1.0
    K = _unit_lower_inverse(X)[:, : len(rows), : len(rows)]
    K *= alpha
    parts = [[block] for block in zip(Ws, K, zs)]
    sums = np.empty(K.shape[:2])
    for i in range(0, len(K), 8):
        np.abs(K[i : i + 8]).sum(axis=2, out=sums[i : i + 8])
    grown = np.flatnonzero((sums > _GROWTH * alpha).any(axis=1))
    if len(grown):
        half = (len(rows) + 1) // 2
        firsts = _build(Ws[grown, :half], zs[grown, :half], alpha)
        seconds = _build(Ws[grown, half:], zs[grown, half:], alpha)
        for i, first, second in zip(grown, firsts, seconds):
            parts[i] = first + second
    return parts


def _padded_stack(n: int, m: int):
    """n identity matrices of side the power of two at or above m, each
    with a spare zero row (see _unit_lower_inverse): the stack an m x m
    matrix stack is written into, at [:, :m, :m], to be inverted."""
    side = 1 << (m - 1).bit_length()
    X = np.zeros((n, side + 1, side))
    X[:, :side] = np.eye(side)
    return X


def _unit_lower_inverse(X):
    """Inverts in place the unit lower-triangular matrices of the stack X
    of _padded_stack, by recursive doubling (Du Croz and Higham, IMA J.
    Numer. Anal. 12, 1992); returns X.

    Each matrix is padded with the identity to a side that is a power of
    two. Once its diagonal blocks of side s are inverted in place, each
    diagonal block of side 2s reads [[A^-1, 0], [C, B^-1]] with C still
    T's, and its inverse is [[A^-1, 0], [-B^-1 C A^-1, B^-1]]. So each
    doubling of s is two batched products over all those blocks at once.
    """
    n, side = X.shape[0], X.shape[2]
    # The spare row makes the diagonal blocks a view: laid out flat, each
    # matrix is side / b runs of b * (side + 1) entries, and run j, read as
    # rows of side entries, starts at entry (j b, j b) of the matrix, so the
    # first b columns of its first b rows are the j-th diagonal block of side b.
    s = 1
    while s < side:
        b = 2 * s
        runs = X.reshape(n, side // b, b * (side + 1))[:, :, : b * side]
        D = runs.reshape(n, side // b, b, side)[..., :b]
        D[..., s:, :s] = -(D[..., s:, s:] @ D[..., s:, :s]) @ D[..., :s, :s]
        s = b
    return X


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
    """Normalized clamped activations of the filled cells, one row per
    example, and the examples' targets.

    Weights never change across epochs, so they are built once. An example
    whose filled cells all have zero weight keeps a zero row, which leaves
    every conclusion as it is (see _sweep), and the target 0. Returns a
    C-contiguous (len(data), len(flat_idx)) array and a (len(data),) one.

    The weights start from the unclamped degrees of _degrees, which a
    read-only dataset keeps from the cluster init, and only the rows of
    examples with an input out of range are rebuilt by activations on
    their clamped inputs. Row k of activations(X) is bit-identical to
    activations(X[k:k + 1]), so W is activations on the clamped inputs,
    bit for bit.
    """
    W = _products(_degrees(data, inputs), len(data))
    lo, hi = [p.lo for p in inputs], [p.hi for p in inputs]
    out = np.flatnonzero(((data.X < lo) | (data.X > hi)).any(axis=1))
    if len(out):
        W[out] = activations(inputs, np.clip(data.X[out], lo, hi))
    if len(flat_idx) < W.shape[1]:
        # The fancy index gives a strided copy; its row sums differ from
        # sums over contiguous rows in the last bit.
        W = np.ascontiguousarray(W[:, flat_idx])
    s = W.sum(axis=1)
    weighted = s > 0.0
    W /= np.where(weighted, s, 1.0)[:, None]
    return W, np.where(weighted, data.z, 0.0)
