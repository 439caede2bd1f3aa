"""Uniform fuzzy partitions and the batched activation kernel.

A partition covers one variable's range [lo, hi] with n unit-height
membership functions on an evenly spaced grid of centers. Triangular
functions have half-base equal to the center spacing, so neighbours
cross at degree 0.5 and the family sums to one everywhere in range.
Gaussian functions get sigma = width_factor * spacing and never reach
zero, which trades the partition-of-unity property for global support.

Where inputs outside [lo, hi] are clamped into range, and where not:

- Partition.degrees and activations do not clamp. cluster_learn's
  weights (activations) and the wm_learn implication degree (degrees)
  come straight from them: an out-of-range example counts less than it
  would at the edge, and fades to nothing far outside.
- The neuro-fuzzy learner clamps its examples before it calls
  activations, and FuzzyModel.outputs clamps its axes, so the tuning
  weights, infer and grid_values see clamped inputs: an out-of-range
  query resolves to the nearest edge region.
- Partition.best clamps, so wm_learn's cell choice and the output-set
  quantization see clamped values.
"""

from __future__ import annotations

import numpy as np

TRIANGULAR = "triangular"
GAUSSIAN = "gaussian"
KINDS = (TRIANGULAR, GAUSSIAN)

DEFAULT_WIDTH_FACTOR = 0.5


class Partition:
    """Uniform family of membership functions over [lo, hi].

    Centers sit at lo + i * spacing with the last center pinned to hi
    exactly (guards against accumulated rounding when (hi - lo) / (n - 1)
    is not representable). Instances are immutable by convention; nothing
    mutates them after construction.
    """

    def __init__(self, lo, hi, n, kind, width_factor=DEFAULT_WIDTH_FACTOR):
        # hi - lo is inf or NaN when a bound is not finite or the span overflows
        if not (lo < hi and np.isfinite(hi - lo)):
            raise ValueError(f"invalid range ({lo}, {hi}): need lo < hi, and lo, hi, hi - lo finite")
        if n < 2:
            raise ValueError(f"invalid count: need at least 2 sets, got {n}")
        if kind not in KINDS:
            raise ValueError(f"unknown membership kind {kind!r}")
        if not 0 < width_factor < np.inf:
            raise ValueError(f"invalid width factor: {width_factor} (must be finite and > 0)")
        self.lo = float(lo)
        self.hi = float(hi)
        self.n = int(n)
        self.kind = kind
        self.width_factor = float(width_factor)
        self.spacing = (self.hi - self.lo) / (self.n - 1)
        centers = self.lo + self.spacing * np.arange(self.n, dtype=float)
        centers[-1] = self.hi
        self.centers = centers
        # half-base of a triangular set, sigma of a gaussian one
        self.width = self.spacing if kind == TRIANGULAR else self.width_factor * self.spacing
        # degrees divides by the width, |x - c| / width reaches
        # (hi - lo) / width in range, and a gaussian squares it: neither may
        # overflow for an input in range.
        ratio = (self.hi - self.lo) / self.width if self.width > 0 else np.inf
        if not np.isfinite(ratio * ratio):
            raise ValueError(
                f"invalid set width {self.width}: need width > 0 and "
                f"((hi - lo) / width)**2 finite"
            )

    def degrees(self, x) -> np.ndarray:
        """Membership degrees of x in every set, no clamping.

        A scalar x gives shape (n,); an array of shape (N,) gives (N, n),
        row k bit-identical to degrees(x[k]). A far input may overflow
        |x - c| / width (or a gaussian's d * d) to inf, whose degree is
        exactly 0.0, so the overflow is not reported.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            d = np.abs(x[..., None] - self.centers) / self.width
            if self.kind == TRIANGULAR:
                return np.maximum(0.0, 1.0 - d)
            return np.exp(-d * d)

    def best(self, x):
        """Index of the maximum-degree set for x, clamped into range.

        A scalar x gives an int, an array of shape (N,) an index array.
        Ties break toward the lower index (np.argmax takes the first
        maximum), which keeps results reproducible at exact midpoints.
        Non-finite values raise ValueError: they have no nearest set.
        """
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError(f"cannot place a non-finite value in a set: {x}")
        idx = np.argmax(self.degrees(np.clip(x, self.lo, self.hi)), axis=-1)
        return int(idx) if idx.ndim == 0 else idx

    def same_axis(self, other: "Partition") -> bool:
        """True when both partitions cover the same range."""
        return self.lo == other.lo and self.hi == other.hi

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.n == other.n
            and self.kind == other.kind
            and self.width_factor == other.width_factor
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.n, self.kind, self.width_factor))

    def __repr__(self):
        return (
            f"Partition({self.lo}, {self.hi}, {self.n}, {self.kind!r}, "
            f"width_factor={self.width_factor})"
        )


def activations(partitions, X) -> np.ndarray:
    """Product-t-norm weight of every grid cell for each row of X.

    X has shape (N, d), one column per partition; like Partition.degrees
    it does not clamp. Returns a C-contiguous (N, cells) array, cells in C
    order of the grid (p1.n, ..., pd.n). Each weight is the left-to-right
    product of its degrees, bit-identical to chained np.multiply.outer on
    one row.
    """
    W = None
    for p, x in zip(partitions, X.T):
        deg = p.degrees(x)
        W = deg if W is None else np.einsum("ni,nj->nij", W, deg).reshape(len(deg), -1)
    return W
