"""Uniform fuzzy partitions and the batched activation kernel.

A partition covers one variable's range [lo, hi] with n unit-height
membership functions on an evenly spaced grid of centers. Triangular
functions have half-base equal to the center spacing, so neighbours
cross at degree 0.5 and the family sums to one everywhere in range.
Gaussian functions get sigma = width_factor * spacing and never reach
zero, which trades the partition-of-unity property for global support.

Where inputs outside [lo, hi] are clamped into range, and where not:

- Partition.degrees and activations do not clamp. cluster_learn's
  weights (activations, and for gaussian sets the last input's degrees
  in a matrix product) and the wm_learn implication degree (degrees)
  come straight from them: an out-of-range example counts less than it
  would at the edge, and fades to nothing far outside.
- The neuro-fuzzy learner clamps its examples before it calls
  activations, and FuzzyModel.outputs clamps its axes, so the tuning
  weights, infer and the grid evaluations see clamped inputs: an
  out-of-range query resolves to the nearest edge region.
- Partition.best clamps, so wm_learn's cell choice and the output-set
  quantization see clamped values. (wm_learn takes an in-range input's
  set from the argmax of its degrees, which clamping would not change,
  and calls best only for inputs out of range.)
"""

from __future__ import annotations

import numbers

import numpy as np

TRIANGULAR = "triangular"
GAUSSIAN = "gaussian"
KINDS = (TRIANGULAR, GAUSSIAN)

DEFAULT_WIDTH_FACTOR = 0.5


def _check_count(what, value, least=None, most=None) -> int:
    """value as an int, or ValueError unless it is an integer (numpy's
    too, never a bool) from least to most; a bound of None is not checked."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be at most {most}, got {value}")
    return int(value)


def _check_real(what, value):
    """value, or ValueError unless it is a real number (numpy's too, never
    a bool); NaN and the infinities are left to the caller's own check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return value


def _check_choice(what, value, choices) -> None:
    """ValueError naming the choices unless value is one of them."""
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r} (valid: {', '.join(choices)})")


def _check_range(lo, hi, what) -> None:
    """ValueError unless lo and hi are real numbers, lo < hi, and lo, hi
    and hi - lo are finite."""
    lo, hi = (_check_real("range bound", bound) for bound in (lo, hi))
    # hi - lo is inf or NaN when a bound is not finite or the span overflows
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ValueError(f"invalid {what} ({lo}, {hi}): need lo < hi, and lo, hi, hi - lo finite")


class Partition:
    """Uniform family of membership functions over [lo, hi].

    Centers sit at lo + i * spacing with the last center pinned to hi
    exactly (guards against accumulated rounding when (hi - lo) / (n - 1)
    is not representable). Instances are immutable: nothing mutates them
    after construction, and centers is read-only. The partition and grid
    caches share equal partitions by value, so a bound of -0.0 is stored
    as 0.0. == and hash compare (lo, hi, n, kind, width), the fields that
    fix the degrees, so equal partitions give equal degrees. Two width
    factors that give the same width compare equal: a triangular set's
    width is the spacing whatever its factor, and a gaussian one's is the
    factor times the spacing, rounded. repr and model files still show
    the factor given.
    """

    def __init__(self, lo, hi, n, kind, width_factor=DEFAULT_WIDTH_FACTOR):
        _check_range(lo, hi, "range")
        self.n = _check_count("set count", n, 2)
        _check_choice("membership kind", kind, KINDS)
        if not 0 < _check_real("width factor", width_factor) < np.inf:
            raise ValueError(f"invalid width factor: {width_factor} (must be finite and > 0)")
        self.lo = float(lo) + 0.0
        self.hi = float(hi) + 0.0
        self.kind = kind
        self.width_factor = float(width_factor)
        self.spacing = (self.hi - self.lo) / (self.n - 1)
        centers = self.lo + self.spacing * np.arange(self.n, dtype=float)
        centers[-1] = self.hi
        centers.flags.writeable = False
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

    def _key(self):
        # the fields that fix the degrees
        return self.lo, self.hi, self.n, self.kind, self.width

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
    one row; with no partitions it is the empty product 1, in one cell.
    An X of any other shape raises ValueError.
    """
    if X.ndim != 2 or X.shape[1] != len(partitions):
        raise ValueError(f"X must have shape (N, {len(partitions)}), got {X.shape}")
    W = None
    for p, x in zip(partitions, X.T):
        deg = p.degrees(x)
        W = deg if W is None else np.einsum("ni,nj->nij", W, deg).reshape(len(deg), -1)
    return np.ones((len(X), 1)) if W is None else W
