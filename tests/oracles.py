"""Independent reference implementations used to validate the learners.

These deliberately avoid the library's vectorized code paths: plain
loops and exhaustive enumeration. The one exception, einsum_sum, is the
plain einsum whose bits the grid's window sum must keep. Partition
centers are taken from the objects under test (so quantization targets
agree bit for bit) but every degree, product, and average is recomputed
from scratch.
"""

import math
import string

import numpy as np


def tri_degree(center, width, x):
    return max(0.0, 1.0 - abs(x - center) / width)


def gauss_degree(center, width, x):
    d = (x - center) / width
    return math.exp(-d * d)


def degree(p, i, x):
    fn = tri_degree if p.kind == "triangular" else gauss_degree
    return fn(float(p.centers[i]), p.width, x)


def center_average(model, x):
    """Center-average output at x, one cell at a time, or None on a gap.

    Each coordinate is clamped into its partition's range; a cell's
    weight is the product of its scalar degrees, and empty cells count
    in neither the weighted sum nor the total weight.
    """
    x = [min(max(v, p.lo), p.hi) for p, v in zip(model.input_partitions, x)]
    num = 0.0
    den = 0.0
    for cell in np.ndindex(model.shape):
        c = float(model.conclusions[cell])
        if math.isnan(c):
            continue
        w = 1.0
        for p, v, i in zip(model.input_partitions, x, cell):
            w *= degree(p, i, v)
        num += w * c
        den += w
    return num / den if den > 0.0 else None


def einsum_sum(mats, table):
    """The sum over cells c of (mats[0][:, c[0]] x ... x mats[-1][:, c[-1]]) * table[c].

    mats holds one (points, sets) degree matrix per input; the result has
    one axis of points per input. One np.einsum over every cell: the grid
    kernel's window sum reproduces its bits on two-input grids of up to
    8192 cells, and the reference heatmaps in perfbench pin them.
    """
    grid, cells = string.ascii_uppercase[:len(mats)], string.ascii_lowercase[:len(mats)]
    # "Aa,Bb,ab->AB" for two inputs: product-t-norm weights times cell values
    subscripts = ",".join(g + c for g, c in zip(grid, cells)) + f",{cells}->{grid}"
    return np.einsum(subscripts, *mats, table)


def argmax_set(p, x):
    """First index of maximal membership, input clamped into range."""
    x = min(max(x, p.lo), p.hi)
    best_i, best_d = 0, -1.0
    for i in range(p.n):
        d = degree(p, i, x)
        if d > best_d:
            best_i, best_d = i, d
    return best_i


def wm_grid(data, inputs, output):
    """Exhaustive best-example extraction: every degree, every cell."""
    shape = tuple(p.n for p in inputs)
    conclusions = np.full(shape, np.nan)
    degrees = np.full(shape, np.nan)
    winner_order = {}
    for order, ex in enumerate(data):
        cell = tuple(argmax_set(p, v) for p, v in zip(inputs, ex.x))
        d = 1.0
        for p, v, i in zip(inputs, ex.x, cell):
            d *= degree(p, i, v)
        seen = not np.isnan(degrees[cell])
        if not seen or d > degrees[cell]:
            out_i = argmax_set(output, ex.z)
            conclusions[cell] = float(output.centers[out_i])
            degrees[cell] = d
            winner_order[cell] = order
    return conclusions, degrees


def cluster_grid(data, inputs, output):
    """Naive weighted average, one cell at a time."""
    shape = tuple(p.n for p in inputs)
    conclusions = np.full(shape, np.nan)
    for cell in np.ndindex(shape):
        num = 0.0
        den = 0.0
        for ex in data:
            w = 1.0
            for p, v, i in zip(inputs, ex.x, cell):
                w *= degree(p, i, v)
            num += w * ex.z
            den += w
        if den > 1e-12:
            conclusions[cell] = num / den
    return conclusions


class RefSplitMix:
    """Second SplitMix64 implementation, written independently."""

    M = 0xFFFFFFFFFFFFFFFF

    def __init__(self, seed):
        self.s = seed & self.M

    def step(self):
        self.s = (self.s + 0x9E3779B97F4A7C15) & self.M
        z = self.s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.M
        z ^= z >> 31
        return z

    def real(self):
        return (self.step() >> 11) / float(1 << 53)


def plane_dataset(n, seed, noise_level=0.0, clustered=False,
                  domain=((1.0, 11.0), (1.0, 11.0))):
    """Scalar rebuild of the documented draw order: [(x, y), z] pairs.

    One draw per example and coordinate, example-major; clustered
    examples first draw a selector, and blob examples one more draw for
    the blob and two per coordinate for a Box-Muller gaussian (math.log,
    math.cos, math.sqrt). Noise draws (x, y, z per example) follow every
    input draw.
    """
    ref = RefSplitMix(seed)
    points = []
    for _ in range(n):
        point = []
        if clustered and ref.real() >= 0.5:
            frac = 0.3 if ref.real() < 0.5 else 0.7
            for lo, hi in domain:
                u1 = ref.real()
                u2 = ref.real()
                if u1 == 0.0:
                    u1 = 2.0**-53
                g = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                v = lo + frac * (hi - lo) + g * 0.08 * (hi - lo)
                point.append(min(max(v, lo), hi))
        else:
            for lo, hi in domain:
                point.append(lo + ref.real() * (hi - lo))
        points.append(point)
    out = []
    for x, y in points:
        z = x + y
        if noise_level > 0:
            x = x * (1.0 + (2.0 * ref.real() - 1.0) * noise_level)
            y = y * (1.0 + (2.0 * ref.real() - 1.0) * noise_level)
            z = z * (1.0 + (2.0 * ref.real() - 1.0) * noise_level)
        out.append(((x, y), z))
    return out


def tuning_weights(data, inputs, flat_idx):
    """The neuro-fuzzy learner's weight build, one example at a time.

    Clamped product-t-norm weights of the cells in flat_idx, normalized
    per example; examples whose weights sum to zero are skipped. Unlike
    the oracles above this is the original per-example code, scalar
    Partition.degrees included, kept as the reference the batched build
    must match bit for bit.
    """
    weights = []
    targets = []
    for ex in data:
        p = inputs[0]
        w = p.degrees(min(max(ex.x[0], p.lo), p.hi))
        for p, v in zip(inputs[1:], ex.x[1:]):
            w = np.multiply.outer(w, p.degrees(min(max(v, p.lo), p.hi)))
        w = w.ravel()[flat_idx]
        s = w.sum()
        if s <= 0.0:
            continue
        weights.append(w / s)
        targets.append(ex.z)
    return weights, targets


def neurofuzzy_conclusions(weights, targets, c, alpha, epochs):
    """The neuro-fuzzy learner's original epoch loop.

    epochs passes over the rows of weights in order, each example moving
    every conclusion by -alpha * (w @ c - z) * w at once. The library runs
    the same updates blockwise; this is the per-example reference it must
    match to relative 1e-12.
    """
    for _ in range(epochs):
        for w, z in zip(weights, targets):
            f = float(w @ c)
            c = c - alpha * (f - z) * w
    return c


def onehot_conclusions(cells, targets, c, alpha, epochs):
    """neurofuzzy_conclusions for one-hot weight rows, row k putting weight
    1 on cell cells[k]: each example moves only its own cell,

        c_k <- c_k - alpha * (c_k - z),

    bit-identical to the loop on floats. It is plain arithmetic on the
    items of c, so Fraction arguments replay the loop exactly.
    """
    c = list(c)
    for _ in range(epochs):
        for k, z in zip(cells, targets):
            c[k] = c[k] - alpha * (c[k] - z)
    return c


# ---------------------------------------------------------------------------
# Per-cell text writers: the report, heatmap and model writers as they were
# before they moved to row-at-a-time work. The library's writers must match
# them byte for byte.

HEAT_RAMP = " .:-=+*#%@"
GAP_CHAR = "?"


def write_diff_report(report, path, metadata=None):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write("x,y,diff\n")
        ys = [f"{y:.17g}" for y in report.ys.tolist()]
        for x, row in zip(report.xs.tolist(), report.diff_grid.tolist()):
            for y, d in zip(ys, row):
                text = "NaN" if math.isnan(d) else f"{d:.17g}"
                fh.write(f"{x:.17g},{y},{text}\n")


def render_heatmap(report):
    grid = np.abs(report.diff_grid)
    gaps = np.isnan(grid)
    finite = grid[~gaps]
    if finite.size:
        edges = np.quantile(finite, np.arange(1, 10) / 10.0)
    else:
        edges = np.zeros(9)
    chars = np.array(list(HEAT_RAMP))[np.searchsorted(edges, grid, side="left")]
    chars[gaps] = GAP_CHAR
    # grid rows index x, so its transpose, bottom row first, is the picture
    return "\n".join("".join(row) for row in chars.T[::-1])


def save_model(model, path):
    def _format_partition(role, p):
        return (
            f"{role} {p.kind} {p.lo:.17g} {p.hi:.17g} {p.n} {p.width_factor:.17g}"
        )

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
