"""Deterministic sample generation for the plane z = x + y.

Everything downstream of a seed is bit-exact: the generator is SplitMix64
with a documented draw order, so a (seed, spec) pair identifies a dataset
byte for byte across platforms. Noise is multiplicative and uniform,
each stored coordinate perturbed independently to v * (1 + u) with u in
[-p, p]. Datasets are columnar (Dataset: an (N, d) input array and an
(N,) output array), generated, validated, read and written whole.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .membership import _check_choice, _check_count, _check_range, _check_real

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

UNIFORM = "uniform"
CLUSTERED = "clustered"
DISTRIBUTIONS = (UNIFORM, CLUSTERED)

DEFAULT_DOMAIN = ((1.0, 11.0), (1.0, 11.0))

# Clustered sampling constants: half the mass is uniform background, the
# rest splits between two gaussian blobs on the domain diagonal.
BLOB_FRACTIONS = (0.3, 0.7)
BLOB_SIGMA_FRACTION = 0.08


class Rng:
    """SplitMix64 stream.

    state <- state + 0x9E3779B97F4A7C15
    t <- state
    t <- (t ^ (t >> 30)) * 0xBF58476D1CE4E5B9
    t <- (t ^ (t >> 27)) * 0x94D049BB133111EB
    out <- t ^ (t >> 31)

    All arithmetic mod 2^64. Uniform doubles take the top 53 bits. The
    seed is masked to its low 64 bits (seed & MASK64), so -1 and 2**64 - 1
    name the same stream.

    The generator is counter-based: draw k (from 1) is the mix of
    seed + k * 0x9E3779B97F4A7C15, so a block of draws is one uint64
    array expression and `drawn`, the number of draws consumed so far,
    is the whole position of the stream.
    """

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.drawn = 0

    def next_u64s(self, count: int) -> np.ndarray:
        """The next count outputs as a uint64 array."""
        k = np.arange(self.drawn + 1, self.drawn + count + 1, dtype=np.uint64)
        self.drawn += count
        t = np.uint64(self.seed) + k * np.uint64(GAMMA)
        t = (t ^ (t >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        t = (t ^ (t >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return t ^ (t >> np.uint64(31))

    def uniforms(self, count: int) -> np.ndarray:
        """The next count uniform doubles in [0, 1)."""
        return (self.next_u64s(count) >> np.uint64(11)) * 2.0**-53


def _box_muller(u1: float, u2: float) -> float:
    """First Box-Muller component of two uniform draws.

    u1 = 0 (possible since uniform draws can be 0) is nudged to the
    smallest positive draw so the log stays finite. Scalar math, not
    numpy: np.log and math.log can differ in the last bit, and datasets
    are bit-exact.
    """
    if u1 == 0.0:
        u1 = 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# One observation as Dataset iteration yields it: inputs x (a tuple), output z.
Example = namedtuple("Example", "x z")


class Dataset:
    """Examples as columns: inputs X of shape (N, d) and outputs z of shape (N,).

    X is a C-contiguous float64 array, z a float64 array. The constructor
    is the one place a dataset is validated: at least one example, shapes,
    and finiteness of every value. Iteration yields one Example(x, z)
    record per row, x a tuple of floats; there is no indexing. == compares
    the arrays.
    Instances are immutable by convention; nothing mutates them after
    construction. The learners take each input's membership degrees from
    degrees, which keeps them only while X is read-only.
    """

    __slots__ = ("X", "z", "_degrees")

    def __init__(self, X, z):
        X = np.ascontiguousarray(X, dtype=float)
        z = np.ascontiguousarray(z, dtype=float)
        if not (X.size or z.size):
            raise ValueError("empty dataset: there are no examples")
        if X.ndim != 2 or z.ndim != 1 or len(X) != len(z):
            raise ValueError(
                f"need inputs of shape (N, d) and outputs of shape (N,), "
                f"got {X.shape} and {z.shape}"
            )
        bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(z))
        if bad.any():
            raise ValueError(
                "examples must contain finite values only "
                f"(example {int(np.argmax(bad))} does not)"
            )
        self.X = X
        self.z = z
        self._degrees = {}

    def degrees(self, partition, k) -> np.ndarray:
        """partition.degrees(self.X[:, k]), for reading only.

        While X is read-only, as it is for the datasets that a sweep's
        cells share, each matrix is computed once per partition (compared
        by value) and column, and kept read-only. A writeable X computes
        its degrees at every call, so an edit to X in place is never
        answered with stale degrees.
        """
        if self.X.flags.writeable:
            return partition.degrees(self.X[:, k])
        key = partition, k
        if key not in self._degrees:
            deg = partition.degrees(self.X[:, k])
            deg.flags.writeable = False
            self._degrees[key] = deg
        return self._degrees[key]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __len__(self):
        return len(self.z)

    def __iter__(self):
        for x, z in zip(self.X.tolist(), self.z.tolist()):
            yield Example(tuple(x), z)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.X, other.X) and np.array_equal(self.z, other.z)

    def __repr__(self):
        return f"Dataset(N={len(self)}, d={self.dim})"


@dataclass(frozen=True)
class DataSpec:
    """What to generate: size, ranges, sampling shape, noise, seed.

    Making one raises ValueError unless make_plane_dataset can run it: n
    and seed are integers (numpy's too, kept as Python ints; n at least
    1, any seed), the distribution is one of DISTRIBUTIONS, the domain is
    two (lo, hi) ranges of real numbers with lo < hi and lo, hi, hi - lo
    finite, and the noise level is a real number, non-negative and finite.
    """

    n: int
    domain: tuple = DEFAULT_DOMAIN
    distribution: str = UNIFORM
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count("example count", self.n, 1))
        object.__setattr__(self, "seed", _check_count("seed", self.seed))
        _check_choice("distribution", self.distribution, DISTRIBUTIONS)
        if not 0 <= _check_real("noise level", self.noise_level) < math.inf:
            raise ValueError(f"noise level must be non-negative and finite, got {self.noise_level}")
        if len(self.domain) != 2:
            raise ValueError(f"plane data needs exactly 2 inputs, domain has {len(self.domain)}")
        for lo, hi in self.domain:
            _check_range(lo, hi, "domain range")


def _draw_inputs(spec: DataSpec, rng: Rng) -> np.ndarray:
    """Input vectors in documented draw order, as an (n, d) array.

    Uniform: one draw per coordinate, example-major. Clustered: per
    example one selector draw; below 0.5 the point is uniform (one draw
    per coordinate), otherwise one more draw picks the blob and each
    coordinate costs a gaussian (two draws), scaled to 8% of the range
    and clamped into the domain.
    """
    n, d = spec.n, len(spec.domain)
    lo = np.array([lo for lo, _ in spec.domain])
    hi = np.array([hi for _, hi in spec.domain])
    span = hi - lo
    if spec.distribution == UNIFORM:
        return lo + rng.uniforms(n * d).reshape(n, d) * span
    # Draw enough for every example to be a blob, then scan the selectors
    # for where each example starts; the stream resumes after the last.
    first = rng.drawn
    u = rng.uniforms(n * (2 + 2 * d))
    step = np.where(u < 0.5, 1 + d, 2 + 2 * d).tolist()
    starts = []
    pos = 0
    for _ in range(n):
        starts.append(pos)
        pos += step[pos]
    rng.drawn = first + pos
    starts = np.array(starts)
    blob = u[starts] >= 0.5
    X = np.empty((n, d))
    X[~blob] = lo + u[starts[~blob, None] + 1 + np.arange(d)] * span
    at = starts[blob, None] + 2 + 2 * np.arange(d)
    g = [
        _box_muller(u1, u2)
        for u1, u2 in zip(u[at].ravel().tolist(), u[at + 1].ravel().tolist())
    ]
    frac = np.where(u[starts[blob] + 1] < 0.5, BLOB_FRACTIONS[0], BLOB_FRACTIONS[1])
    center = lo + frac[:, None] * span
    value = center + np.reshape(g, at.shape) * BLOB_SIGMA_FRACTION * span
    X[blob] = np.clip(value, lo, hi)
    return X


def make_plane_dataset(spec: DataSpec) -> Dataset:
    """Examples of z = x + y under spec, noisy if requested.

    The clean inputs produce z first; only then are the stored x, y, z
    perturbed (three draws per example, in that order). noise_level 0
    consumes no noise draws at all, so a clean spec and a noisy spec with
    the same seed share identical underlying inputs. spec checked itself
    when it was made, so every spec runs.
    """
    rng = Rng(spec.seed)
    X = _draw_inputs(spec, rng)
    z = X[:, 0] + X[:, 1]
    p = spec.noise_level
    if p > 0:
        factors = 1.0 + (2.0 * rng.uniforms(3 * spec.n).reshape(spec.n, 3) - 1.0) * p
        X *= factors[:, :2]
        z *= factors[:, 2]
    return Dataset(X, z)


def write_dataset(path, data: Dataset) -> None:
    """Dataset CSV: header x,y,z then one row per example, 17 digits."""
    if data.dim != 2:
        raise ValueError(f"dataset files hold 2-input examples, got {data.dim} inputs")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z\n")
        fh.writelines(
            f"{x:.17g},{y:.17g},{z:.17g}\n"
            for (x, y), z in zip(data.X.tolist(), data.z.tolist())
        )


def read_dataset(path) -> Dataset:
    """The dataset of a file in write_dataset's format, blank lines skipped.

    A bad header, a row without three fields, a field that does not parse
    and a value that is not finite raise ValueError; a row's error names
    its file line. A file without rows raises Dataset's ValueError.
    """
    inputs, outputs = [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,y,z":
            raise ValueError(f"unexpected dataset header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"line {line_no}: expected 3 fields, got {len(parts)}")
            try:
                x, y, z = (float(v) for v in parts)
            except ValueError as e:
                raise ValueError(f"line {line_no}: {e}") from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise ValueError(f"line {line_no}: values must be finite, got {line!r}")
            inputs.append((x, y))
            outputs.append(z)
    return Dataset(inputs, outputs)
