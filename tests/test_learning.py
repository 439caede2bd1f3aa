import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fuzzgrid import (
    GAUSSIAN,
    TRIANGULAR,
    DataSpec,
    Dataset,
    FuzzyModel,
    NeuroFuzzyConfig,
    Partition,
    activations,
    cluster_learn,
    infer,
    make_plane_dataset,
    model_error,
    neurofuzzy_learn,
    wm_learn,
)

from fuzzgrid import learning
from fuzzgrid.learning import (
    INITS,
    _powering_pays,
    _sweep,
    _tuning_weights,
    _unit_lower_inverse,
)

from oracles import (
    cluster_grid,
    neurofuzzy_conclusions,
    onehot_conclusions,
    tuning_weights,
    wm_grid,
)


def tri_parts(n=3, lo=0.0, hi=10.0, out_lo=0.0, out_hi=20.0, out_n=13):
    px = Partition(lo, hi, n, TRIANGULAR)
    py = Partition(lo, hi, n, TRIANGULAR)
    pout = Partition(out_lo, out_hi, out_n, TRIANGULAR)
    return [px, py], pout


def gauss_parts(n=3, lo=0.0, hi=10.0, wf=0.5):
    px = Partition(lo, hi, n, GAUSSIAN, wf)
    py = Partition(lo, hi, n, GAUSSIAN, wf)
    pout = Partition(0, 20, 13, TRIANGULAR)
    return [px, py], pout


def random_data(rng, count=20, lo=0.0, hi=10.0):
    pts = rng.uniform(lo, hi, size=(count, 2))
    return Dataset(pts, rng.uniform(2 * lo, 2 * hi, size=count))


def one(x, z):
    """The dataset of the single example (x, z)."""
    return Dataset([x], [z])


# ---------------------------------------------------------------------------
# validation

def test_neurofuzzy_config_validation():
    NeuroFuzzyConfig(alpha=0.0, epochs=0)  # zero rate and zero epochs are legal
    NeuroFuzzyConfig(alpha=2.0)  # the largest rate that keeps every step non-expansive
    for alpha in (-0.1, 2.0 + 1e-9, 50.0, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            NeuroFuzzyConfig(alpha=alpha)
    with pytest.raises(ValueError, match="epochs"):
        NeuroFuzzyConfig(epochs=-1)
    with pytest.raises(ValueError, match="init"):
        NeuroFuzzyConfig(init="random")


def test_learners_reject_empty_data():
    # Dataset refuses no examples, so every learner gets at least one.
    with pytest.raises(ValueError, match="empty dataset"):
        Dataset(np.empty((0, 2)), np.empty(0))
    single = one((5.0, 5.0), 10.0)
    inputs, out = tri_parts()
    assert wm_learn(single, inputs, out).rule_count() == 1
    assert cluster_learn(single, inputs, out).rule_count() == 1
    ginputs, gout = gauss_parts()
    assert neurofuzzy_learn(single, ginputs, gout, NeuroFuzzyConfig()).rule_count() == 9


@pytest.mark.parametrize("epochs", [1, 50])
def test_numpy_integer_epochs_train_bit_identically(epochs):
    # At 81 cells and 100 rows, 1 epoch runs the passes and 50 powers the epoch map.
    assert _powering_pays(100, 81, epochs) == (epochs > 1)
    cfg = NeuroFuzzyConfig(epochs=np.int64(epochs))
    assert type(cfg.epochs) is int and cfg == NeuroFuzzyConfig(epochs=epochs)
    data = make_plane_dataset(DataSpec(n=100, noise_level=0.1, seed=0))
    inputs, out = gauss_parts(n=9, lo=1.0, hi=11.0)
    a, b = (
        neurofuzzy_learn(data, inputs, out, c).conclusions
        for c in (cfg, NeuroFuzzyConfig(epochs=epochs))
    )
    assert a.size == 81 and a.tobytes() == b.tobytes()


def test_wm_requires_triangular():
    inputs, out = gauss_parts()
    with pytest.raises(ValueError, match="triangular"):
        wm_learn(one((5.0, 5.0), 10.0), inputs, out)


def test_neurofuzzy_requires_gaussian():
    inputs, out = tri_parts()
    with pytest.raises(ValueError, match="gaussian"):
        neurofuzzy_learn(one((5.0, 5.0), 10.0), inputs, out, NeuroFuzzyConfig())


WRONG_DIMENSIONS = ((5.0, 5.0, 5.0), (5.0,))


def test_wm_rejects_wrong_dimension():
    inputs, out = tri_parts()
    for x in WRONG_DIMENSIONS:
        with pytest.raises(ValueError, match="2 input partitions"):
            wm_learn(one(x, 10.0), inputs, out)


def test_cluster_rejects_wrong_dimension():
    inputs, out = tri_parts()
    for x in WRONG_DIMENSIONS:
        with pytest.raises(ValueError, match="2 input partitions"):
            cluster_learn(one(x, 10.0), inputs, out)


def test_neurofuzzy_rejects_wrong_dimension():
    inputs, out = gauss_parts()
    for x in WRONG_DIMENSIONS:
        with pytest.raises(ValueError, match="2 input partitions"):
            neurofuzzy_learn(one(x, 10.0), inputs, out, NeuroFuzzyConfig())


# ---------------------------------------------------------------------------
# best-example extraction

def test_wm_single_example_at_grid_point():
    inputs, out = tri_parts()
    m = wm_learn(one((5.0, 5.0), 10.0), inputs, out)
    assert m.rule_count() == 1
    assert m.conclusions[1, 1] == 10.0  # center of output set 6
    assert m.degrees[1, 1] == 1.0
    assert out.best(10.0) == 6


def test_wm_conflict_keeps_higher_degree():
    inputs, out = tri_parts()
    # both examples land in cell (1, 1); degrees 0.9 and 0.5
    strong = ((5.5, 5.0), 8.0)
    weak = ((7.5, 5.0), 16.0)
    for (x1, z1), (x2, z2) in ((strong, weak), (weak, strong)):
        data = Dataset([x1, x2], [z1, z2])
        m = wm_learn(data, inputs, out)
        assert m.rule_count() == 1
        assert m.degrees[1, 1] == pytest.approx(0.9, rel=1e-15)
        assert m.conclusions[1, 1] == pytest.approx(25.0 / 3.0, rel=1e-15)


def test_wm_tie_keeps_earliest():
    inputs, out = tri_parts()
    # the second example has the same 0.9 degree in the same cell
    m = wm_learn(Dataset([(5.5, 5.0), (4.5, 5.0)], [4.0, 16.0]), inputs, out)
    assert m.conclusions[1, 1] == pytest.approx(out.centers[out.best(4.0)])
    m = wm_learn(Dataset([(4.5, 5.0), (5.5, 5.0)], [16.0, 4.0]), inputs, out)
    assert m.conclusions[1, 1] == pytest.approx(out.centers[out.best(16.0)])


def test_wm_matches_exhaustive_oracle():
    rng = np.random.default_rng(17)
    for trial in range(10):
        data = random_data(rng)
        for n in (3, 5):
            inputs, out = tri_parts(n=n)
            m = wm_learn(data, inputs, out)
            conclusions, degrees = wm_grid(data, inputs, out)
            assert np.array_equal(m.conclusions, conclusions, equal_nan=True)
            assert np.array_equal(m.degrees, degrees, equal_nan=True)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_wm_matches_exhaustive_oracle_with_ties_and_far_inputs(dim):
    # Values at the centers and at the midpoints, where two sets tie, and
    # far outside [0, 10] on both sides, where every degree is 0 and the
    # cell still comes from the clamped value. Repeated rows tie in degree.
    rng = np.random.default_rng(dim)
    inputs = [Partition(0, 10, 5, TRIANGULAR) for _ in range(dim)]
    out = Partition(0, 30, 13, TRIANGULAR)
    far = [-1e300, -1e6, -0.5, 10.5, 1e6, 1e300]
    values = np.concatenate([np.linspace(0, 10, 9), rng.uniform(0, 10, 9), far])
    X = rng.choice(values, size=(60, dim))
    X = np.concatenate([[[v] * dim for v in far], X, X[:20]])
    data = Dataset(X, rng.uniform(0, 30, len(X)))
    # Alone, inputs far above the range fill the last cell with degree 0.
    above = Dataset([[1e6] * dim, [1e300] * dim], [3.0, 4.0])
    for d in (data, above):
        m = wm_learn(d, inputs, out)
        conclusions, degrees = wm_grid(d, inputs, out)
        assert np.array_equal(m.conclusions, conclusions, equal_nan=True)
        assert np.array_equal(m.degrees, degrees, equal_nan=True)


def test_wm_conclusions_are_output_centers():
    rng = np.random.default_rng(23)
    inputs, out = tri_parts(n=5)
    m = wm_learn(random_data(rng, 50), inputs, out)
    centers = set(float(c) for c in out.centers)
    for idx in zip(*np.nonzero(m.filled_mask())):
        assert float(m.conclusions[idx]) in centers


def test_wm_permutation_invariant_without_ties():
    rng = np.random.default_rng(29)
    data = random_data(rng, 30)
    inputs, out = tri_parts(n=5)
    a = wm_learn(data, inputs, out)
    order = rng.permutation(len(data))
    b = wm_learn(Dataset(data.X[order], data.z[order]), inputs, out)
    assert np.array_equal(a.conclusions, b.conclusions, equal_nan=True)


# ---------------------------------------------------------------------------
# weighted averaging

def test_cluster_symmetric_average():
    inputs, out = tri_parts()
    m = cluster_learn(Dataset([(5.0, 5.0), (5.0, 5.0)], [8.0, 12.0]), inputs, out)
    assert m.conclusions[1, 1] == 10.0


def test_cluster_gaussian_global_support():
    inputs, out = gauss_parts()
    m = cluster_learn(one((5.0, 5.0), 10.0), inputs, out)
    assert m.empty_count() == 0
    assert np.allclose(m.conclusions, 10.0)


def test_cluster_triangular_leaves_gaps():
    inputs, out = tri_parts(n=5)
    # all examples in one corner; the far corner has zero weight
    m = cluster_learn(Dataset([(0.5, 0.5), (1.0, 0.2)], [1.0, 1.2]), inputs, out)
    assert np.isnan(m.conclusions[4, 4])
    assert m.empty_count() > 0


def test_cluster_matches_naive_oracle():
    rng = np.random.default_rng(31)
    for trial in range(10):
        data = random_data(rng)
        for n in (3, 5):
            inputs, out = tri_parts(n=n)
            m = cluster_learn(data, inputs, out)
            expected = cluster_grid(data, inputs, out)
            assert np.allclose(
                m.conclusions, expected, rtol=1e-12, atol=1e-12, equal_nan=True
            )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_cluster_matches_naive_oracle(dim):
    # Gaussian sums are matrix products, which add in another order than
    # the oracle: the gate is 1e-12 of max|z|, with the same empty cells.
    # Some examples lie outside [0, 10], two far enough to weigh nothing.
    rng = np.random.default_rng(53 + dim)
    out = Partition(-20, 20, 13, TRIANGULAR)
    for wf in (0.05, 0.2, 0.5, 1.0, 2.0):
        inputs = [Partition(0, 10, 4, GAUSSIAN, wf) for _ in range(dim)]
        X = np.concatenate([rng.uniform(-2, 12, (40, dim)), [[-1e3] * dim, [1e3] * dim]])
        data = Dataset(X, rng.uniform(-20, 20, len(X)))
        got = cluster_learn(data, inputs, out).conclusions
        ref = cluster_grid(data, inputs, out)
        filled = ~np.isnan(ref)
        assert np.array_equal(~np.isnan(got), filled)
        assert np.abs(got[filled] - ref[filled]).max() <= 1e-12 * np.abs(data.z).max()


def test_cluster_conclusions_are_convex_combinations():
    rng = np.random.default_rng(37)
    data = random_data(rng, 50)
    inputs, out = tri_parts(n=7)
    m = cluster_learn(data, inputs, out)
    filled = m.conclusions[m.filled_mask()]
    assert filled.min() >= data.z.min() - 1e-12
    assert filled.max() <= data.z.max() + 1e-12


def test_learner_degrees_and_activations_unclamped_tuning_weights_clamped():
    # The policy in the membership module docstring. Sets 0 and 1 of x
    # cover [0, 5]; (-1, 5) lies outside the domain, (0, 5) is its clamped
    # twin. An anchor example at x = 2.5 with z = 0 shares cell (0, 1).
    inputs, out = tri_parts()
    outside = Dataset([(2.5, 5.0), (-1.0, 5.0)], [0.0, 10.0])
    twin = Dataset([(2.5, 5.0), (0.0, 5.0)], [0.0, 10.0])
    # cluster_learn: weight 0.8 outside against 1.0 at the edge, beside the
    # anchor's 0.5, so the outside example pulls the average up less.
    c_outside = cluster_learn(outside, inputs, out).conclusions[0, 1]
    c_twin = cluster_learn(twin, inputs, out).conclusions[0, 1]
    assert c_outside == pytest.approx(10.0 * 0.8 / 1.3, rel=1e-15)
    assert c_twin == pytest.approx(10.0 * 1.0 / 1.5, rel=1e-15)
    # wm_learn: best() clamps, so both land in cell (0, 1), but the
    # implication degree is not clamped.
    degree_outside = wm_learn(one((-1.0, 5.0), 10.0), inputs, out).degrees[0, 1]
    assert degree_outside == pytest.approx(0.8)
    assert wm_learn(one((0.0, 5.0), 10.0), inputs, out).degrees[0, 1] == 1.0
    # activations does not clamp either: it is the product of the degrees,
    # 0.8 * 1.0 in cell (0, 1) for the outside example.
    w_outside = activations(inputs, outside.X).reshape(2, 3, 3)
    assert w_outside[1, 0, 1] == pytest.approx(0.8)
    assert activations(inputs, twin.X).reshape(2, 3, 3)[1, 0, 1] == 1.0
    # The neuro-fuzzy weights clamp, so from the flat zero initialization
    # the outside example and its twin tune the conclusions alike.
    ginputs, gout = gauss_parts()
    cfg = NeuroFuzzyConfig(epochs=3, init="zero")
    tuned = [neurofuzzy_learn(d, ginputs, gout, cfg).conclusions for d in (outside, twin)]
    assert np.array_equal(*tuned)


def test_cluster_rejects_mixed_kinds():
    px = Partition(0, 10, 3, TRIANGULAR)
    py = Partition(0, 10, 3, GAUSSIAN)
    pout = Partition(0, 20, 13, TRIANGULAR)
    with pytest.raises(ValueError, match="one membership kind"):
        cluster_learn(one((5.0, 5.0), 10.0), [px, py], pout)


# ---------------------------------------------------------------------------
# gradients

def applied_gradient(model, x, z):
    """The filled cells and the step direction (w @ c - z) * w that the
    learner applies for one example: w is the example's row of
    _tuning_weights, c the filled conclusions. It should be the gradient
    of (f(x) - z)^2 / 2 with respect to c."""
    flat_idx = np.flatnonzero(model.filled_mask().ravel())
    W, _ = _tuning_weights(one(x, z), model.input_partitions, flat_idx)
    return flat_idx, (W[0] @ model.conclusions.flat[flat_idx] - z) * W[0]


def test_gradient_zero_residual():
    inputs, out = gauss_parts()
    m = cluster_learn(one((5.0, 5.0), 10.0), inputs, out)
    _, grad = applied_gradient(m, (3.0, 7.0), 10.0)
    assert np.all(np.abs(grad) <= 1e-12)


def test_gradient_single_cell():
    px = Partition(0, 10, 3, TRIANGULAR)
    py = Partition(0, 10, 3, TRIANGULAR)
    pout = Partition(0, 20, 13, TRIANGULAR)
    conclusions = np.full((3, 3), np.nan)
    conclusions[1, 1] = 12.0
    m = FuzzyModel([px, py], pout, conclusions)
    flat_idx, grad = applied_gradient(m, (5.0, 5.0), 10.0)
    assert flat_idx.tolist() == [4]  # cell (1, 1)
    assert grad.tolist() == [2.0]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 5))
        inputs, out = gauss_parts(n=n, wf=float(rng.uniform(0.3, 1.0)))
        conclusions = rng.uniform(0, 20, size=(n, n))
        x = (float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        z = float(rng.uniform(0, 20))
        flat_idx, grad = applied_gradient(FuzzyModel(inputs, out, conclusions), x, z)
        assert len(flat_idx) == n * n

        def loss(c):
            return 0.5 * (infer(FuzzyModel(inputs, out, c), x) - z) ** 2

        for i, analytic in zip(flat_idx, grad):
            plus = conclusions.copy()
            plus.flat[i] += h
            minus = conclusions.copy()
            minus.flat[i] -= h
            fd = (loss(plus) - loss(minus)) / (2 * h)
            # loss is quadratic in each conclusion, so the central
            # difference is exact up to roundoff of order eps * loss / h
            assert abs(fd - analytic) <= 1e-7 + 1e-6 * abs(analytic)


# ---------------------------------------------------------------------------
# gradient descent on conclusions

def test_neurofuzzy_zero_epochs_is_cluster_init():
    data = make_plane_dataset(DataSpec(n=50, noise_level=0.1, seed=3))
    inputs = [Partition(1, 11, 9, GAUSSIAN), Partition(1, 11, 9, GAUSSIAN)]
    out = Partition(2, 22, 13, TRIANGULAR)
    tuned = neurofuzzy_learn(data, inputs, out, NeuroFuzzyConfig(epochs=0))
    base = cluster_learn(data, inputs, out)
    assert np.array_equal(tuned.conclusions, base.conclusions, equal_nan=True)


def test_neurofuzzy_alpha_zero_keeps_init():
    data = make_plane_dataset(DataSpec(n=50, noise_level=0.1, seed=4))
    inputs = [Partition(1, 11, 9, GAUSSIAN), Partition(1, 11, 9, GAUSSIAN)]
    out = Partition(2, 22, 13, TRIANGULAR)
    for init in ("cluster", "zero"):
        cfg = NeuroFuzzyConfig(alpha=0.0, epochs=25, init=init)
        m = neurofuzzy_learn(data, inputs, out, cfg)
        if init == "cluster":
            ref = cluster_learn(data, inputs, out).conclusions
        else:
            ref = np.full((9, 9), 12.0)
        assert np.array_equal(m.conclusions, ref, equal_nan=True)


@pytest.mark.parametrize("epochs", [1, 50])
def test_neurofuzzy_keeps_an_init_with_every_cell_empty(epochs):
    # Sets this narrow reach no example, so the cluster init has no filled
    # cell and the tuning weights have no columns.
    data = make_plane_dataset(DataSpec(n=100, seed=0))
    inputs, out = gauss_parts(lo=1.0, hi=11.0, wf=0.001)
    init = cluster_learn(data, inputs, out)
    assert init.empty_count() == 9
    tuned = neurofuzzy_learn(data, inputs, out, NeuroFuzzyConfig(epochs=epochs))
    assert np.array_equal(tuned.conclusions, init.conclusions, equal_nan=True)


def test_neurofuzzy_single_example_full_correction():
    # one effective cell: narrow gaussians make the corner weight 1.0
    px = Partition(0, 10, 2, GAUSSIAN, 0.05)
    py = Partition(0, 10, 2, GAUSSIAN, 0.05)
    pout = Partition(0, 20, 13, TRIANGULAR)
    cfg = NeuroFuzzyConfig(alpha=1.0, epochs=1, init="zero")
    m = neurofuzzy_learn(one((0.0, 0.0), 7.0), [px, py], pout, cfg)
    assert m.conclusions[0, 0] == 7.0


def test_tuning_weights_match_per_example_reference():
    out = Partition(2, 22, 13, TRIANGULAR)
    wide = [Partition(1, 11, 9, GAUSSIAN), Partition(1, 11, 9, GAUSSIAN)]
    # Narrow sets over data in one half of the domain: the cluster init
    # leaves the other half empty, so only some cells are tuned.
    narrow = [Partition(1, 11, 9, GAUSSIAN, 0.2), Partition(1, 11, 9, GAUSSIAN, 0.2)]
    half = make_plane_dataset(DataSpec(n=200, domain=((1.0, 6.0), (1.0, 11.0)), seed=2))
    # Narrower still around corner data: the far example has zero weight
    # on every filled cell and gets a zero row.
    narrowest = [Partition(1, 11, 9, GAUSSIAN, 0.05), Partition(1, 11, 9, GAUSSIAN, 0.05)]
    corner = Dataset(
        [(9.8, 10.1), (10.4, 9.9), (10.9, 10.6), (11.0, 11.0), (-90.0, -90.0)],
        [19.9, 20.3, 21.5, 22.0, 3.0],
    )
    three = [Partition(0, 1, 4, GAUSSIAN, 0.7) for _ in range(3)]
    cube = np.random.default_rng(43).uniform(-0.2, 1.2, (50, 3))
    cases = [
        (make_plane_dataset(DataSpec(n=300, noise_level=0.3, seed=5)), wide, 81),
        (half, narrow, 45),
        (corner, narrowest, 1),
        (Dataset(cube, [sum(x) for x in cube.tolist()]), three, 64),
    ]
    for data, inputs, cells in cases:
        filled = cluster_learn(data, inputs, out).filled_mask()
        flat_idx = np.flatnonzero(filled.ravel())
        weights, targets = _tuning_weights(data, inputs, flat_idx)
        ref_weights, ref_targets = tuning_weights(data, inputs, flat_idx)
        assert weights.shape == (len(data), cells)
        assert weights.flags.c_contiguous
        assert np.array_equal(weights, np.array(ref_weights))
        assert np.array_equal(targets, ref_targets)
        zero_rows = np.flatnonzero(~weights.any(axis=1))
        assert zero_rows.tolist() == ([4] if data is corner else [])


def assert_matches_loop(got, ref, *inputs):
    """got equals ref to 1e-12 relative to the largest magnitude in ref
    and inputs: the blocked sweep sums the loop's updates in another
    order, so it is not bit-identical. Below the smallest normal float
    rounding is absolute, so that much is allowed on top."""
    scale = max(np.abs(a).max(initial=0.0) for a in (ref, *inputs))
    error = np.abs(got - ref).max(initial=0.0)
    assert error <= 1e-12 * scale + np.finfo(float).tiny


def duplicate_runs(n, centers, seed):
    """n examples in four runs of equal examples, each at a grid point of
    centers x centers, with targets off the plane."""
    rng = np.random.default_rng(seed)
    points = rng.choice(centers, size=(4, 2))
    z = points.sum(axis=1) + rng.uniform(-1.0, 1.0, 4)
    counts = np.diff(np.linspace(0, n, 5).astype(int))
    return Dataset(np.repeat(points, counts, axis=0), np.repeat(z, counts))


def epochs_on_both_paths(rows, cells):
    """Rising epoch counts up to 50 on both sides of the choice between the
    passes and powering: 1, the first count that powers, the one before it,
    and 50."""
    first = next(e for e in range(1, 51) if _powering_pays(rows, cells, e))
    return sorted({1, first - 1, first, 50})


def spy_matrix_power(monkeypatch):
    """A list that grows by one on each np.linalg.matrix_power call."""
    calls = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power", lambda *a: calls.append(a) or matrix_power(*a))
    return calls


def block_systems(rows, alpha, rng):
    """Two unit lower-triangular T = I + alpha * tril(W W^T, -1) of side
    rows, as _build makes them: one from random rows W that sum to 1, one
    from runs of equal one-hot rows, where T^-1 alternates in sign and grows
    at alpha near 2."""
    W = rng.uniform(0.0, 1.0, (rows, 9))
    W /= W.sum(axis=1)[:, None]
    runs = np.diff(np.linspace(0, rows, 5).astype(int))
    onehot = np.eye(9)[np.repeat(rng.integers(0, 9, 4), runs)]
    return np.stack([np.eye(rows) + alpha * np.tril(V @ V.T, -1) for V in (W, onehot)])


@pytest.mark.parametrize("alpha", [0.1, 1.0, 1.99999, 2.0])
def test_unit_lower_inverse_matches_lapack(alpha):
    # Every block side _build makes: full blocks of 32 rows, the halves of
    # grown blocks and the block of 1-31 rows left over.
    rng = np.random.default_rng(0)
    for rows in range(1, 33):
        T = block_systems(rows, alpha, rng)
        X = _unit_lower_inverse(T)
        assert X.shape == T.shape
        scale = np.abs(X).max()
        assert np.abs(T @ X - np.eye(rows)).max() <= 1e-12 * scale
        assert np.abs(X - np.linalg.inv(T)).max() <= 1e-12 * scale
        assert np.array_equal(X, np.tril(X))
        assert np.all(np.diagonal(X, axis1=1, axis2=2) == 1.0)


def test_neurofuzzy_never_calls_lapack_inverse(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    inputs, out = gauss_parts(n=9)
    # 1000 rows: 31 full blocks and 8 left over; 100 rows at alpha = 2 over
    # equal one-hot rows: blocks that grow and are built again as halves.
    data = make_plane_dataset(DataSpec(n=1000, noise_level=0.1, seed=0, domain=((0, 10), (0, 10))))
    neurofuzzy_learn(data, inputs, out, NeuroFuzzyConfig(epochs=1))
    onehot = [Partition(1, 11, 9, GAUSSIAN, 0.01)] * 2
    neurofuzzy_learn(
        duplicate_runs(100, onehot[0].centers, seed=0),
        onehot,
        out,
        NeuroFuzzyConfig(alpha=2.0, epochs=50, init="zero"),
    )


@pytest.mark.parametrize("n", [1, 31, 32, 33, 100, 1000])
def test_neurofuzzy_matches_per_example_loop(monkeypatch, n):
    # n straddles the 32-row blocks of the sweep.
    powered = spy_matrix_power(monkeypatch)
    out = Partition(2, 22, 13, TRIANGULAR)
    wide = [Partition(1, 11, 9, GAUSSIAN), Partition(1, 11, 9, GAUSSIAN)]
    # Narrow sets over data in one half of the domain: the cluster init
    # leaves the other half empty, so only some cells are tuned.
    narrow = [Partition(1, 11, 9, GAUSSIAN, 0.2), Partition(1, 11, 9, GAUSSIAN, 0.2)]
    half = ((1.0, 6.0), (1.0, 11.0))
    # Sets so narrow that an example at a center has weight 1 there and 0
    # elsewhere: runs of equal one-hot rows, which at alpha near 2 make the
    # block matrices of the sweep alternate in sign instead of decaying. The
    # cluster init would start each cell at its examples' target, with
    # nothing left to tune, so only the zero init runs there.
    onehot = [Partition(1, 11, 9, GAUSSIAN, 0.01), Partition(1, 11, 9, GAUSSIAN, 0.01)]
    rates = (0.1, 0.8, 0.95, 2.0)
    grids = [
        (make_plane_dataset(DataSpec(n=n, noise_level=0.1, seed=n)), wide, INITS, rates),
        (
            make_plane_dataset(DataSpec(n=n, noise_level=0.1, domain=half, seed=n)),
            narrow, INITS, rates,
        ),
        (duplicate_runs(n, onehot[0].centers, seed=0), onehot, ("zero",), (1.99, 2.0)),
    ]
    for data, inputs, inits, alphas in grids:
        for init in inits:
            if init == "cluster":
                start = cluster_learn(data, inputs, out).conclusions
            else:
                start = np.full((9, 9), 12.0)
            if inputs is narrow and init == "cluster":
                assert np.isnan(start).any()
            flat_idx = np.flatnonzero(~np.isnan(start).ravel())
            weights, targets = tuning_weights(data, inputs, flat_idx)
            assert len(weights) == n
            if inputs is onehot:
                assert set(np.unique(weights)) == {0.0, 1.0}
            shape = (n, len(flat_idx))
            counts = epochs_on_both_paths(*shape)
            for alpha in alphas:
                ref = start.copy()
                done = 0
                paths = []
                for epochs in counts:
                    # the loop runs on from the previous count, bit for bit
                    ref.flat[flat_idx] = neurofuzzy_conclusions(
                        weights, targets, ref.flat[flat_idx], alpha, epochs - done
                    )
                    done = epochs
                    cfg = NeuroFuzzyConfig(alpha=alpha, epochs=epochs, init=init)
                    calls = len(powered)
                    got = neurofuzzy_learn(data, inputs, out, cfg).conclusions
                    paths.append(len(powered) > calls)
                    filled = ~np.isnan(ref)
                    assert np.array_equal(~np.isnan(got), filled)
                    assert_matches_loop(got[filled], ref[filled])
                # both paths ran, each where _powering_pays chose it
                assert paths == [_powering_pays(*shape, e) for e in counts]
                assert set(paths) == {False, True}


def test_neurofuzzy_matches_per_example_loop_over_zero_weight_rows(monkeypatch):
    # At width factor 0.05 the cluster init fills 22 cells of the noisy
    # README data, and 16 of its 100 examples have zero weight on all of
    # them: their zero rows must leave the conclusions as they are.
    powered = spy_matrix_power(monkeypatch)
    inputs = [Partition(1, 11, 9, GAUSSIAN, 0.05)] * 2
    out = Partition(2, 22, 13, TRIANGULAR)
    data = make_plane_dataset(DataSpec(n=100, noise_level=0.1, seed=0))
    start = cluster_learn(data, inputs, out).conclusions
    flat_idx = np.flatnonzero(~np.isnan(start).ravel())
    weights, targets = tuning_weights(data, inputs, flat_idx)
    assert sum(not w.any() for w in weights) == 16
    counts = epochs_on_both_paths(len(data), len(flat_idx))
    for alpha in (0.1, 0.8, 2.0):
        paths = []
        for epochs in counts:
            ref = neurofuzzy_conclusions(weights, targets, start.flat[flat_idx], alpha, epochs)
            calls = len(powered)
            cfg = NeuroFuzzyConfig(alpha=alpha, epochs=epochs)
            got = neurofuzzy_learn(data, inputs, out, cfg).conclusions
            paths.append(len(powered) > calls)
            assert np.array_equal(np.isnan(got), np.isnan(start))
            assert_matches_loop(got.flat[flat_idx], ref)
        assert set(paths) == {False, True}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sweep_matches_per_example_loop(data):
    rows = data.draw(st.integers(1, 80), label="rows")
    cells = data.draw(st.integers(1, 20), label="cells")
    W = data.draw(hnp.arrays(np.float64, (rows, cells), elements=st.floats(0.0, 1.0)), label="W")
    # Rows of zeros stay: they are the examples with no weight on a filled cell.
    s = W.sum(axis=1)
    W /= np.where(s > 0.0, s, 1.0)[:, None]
    values = st.floats(-100.0, 100.0)
    targets = data.draw(hnp.arrays(np.float64, rows, elements=values), label="targets")
    c = data.draw(hnp.arrays(np.float64, cells, elements=values), label="c")
    alpha = data.draw(st.floats(0.0, 2.0), label="alpha")
    epochs = data.draw(st.sampled_from([0, 1, 2, 3, 4, 5, 15, 16, 50]), label="epochs")
    ref = neurofuzzy_conclusions(W, targets, c, alpha, epochs)
    # With this few cells powering pays from 2 epochs on, so both paths are
    # forced in turn.
    for pays in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learning, "_powering_pays", lambda *a: pays)
            got = _sweep(W, targets, c, alpha, epochs)
        assert_matches_loop(got, ref, c, targets)


def test_onehot_recurrence_is_the_loop_bit_for_bit():
    inputs = [Partition(1, 11, 9, GAUSSIAN, 0.01)] * 2
    data = duplicate_runs(40, inputs[0].centers, seed=3)
    W = activations(inputs, data.X)
    assert set(np.unique(W)) == {0.0, 1.0}
    c = np.linspace(-5.0, 30.0, 81)
    for alpha in (0.3, 1.99, 2.0):
        ref = neurofuzzy_conclusions(W, data.z, c, alpha, 7)
        got = onehot_conclusions(W.argmax(axis=1), data.z.tolist(), c.tolist(), alpha, 7)
        assert np.array_equal(np.array(got), ref)


# Rates just below 2, where one rounding of K_b, or of the epoch map, recurs
# in every pass or product and adds up. At 1.99999 and 200 epochs the powered
# map misses the loop here by 9.7e-13 of the scale, close to the gate.
NEAR_TWO = (1.99, 1.9999, 1.99999, 2.0)


@pytest.mark.parametrize("seed", range(6))
def test_neurofuzzy_matches_onehot_recurrence_near_alpha_two(seed):
    # Runs of equal one-hot rows at alpha near 2 make K_b alternate in sign
    # (see learning._GROWTH). Long runs and many epochs pin the split of
    # grown blocks: fixed blocks of 16 rows without it miss the loop by more
    # than 1e-12 here, and blocks of 8 in the next test.
    inputs = [Partition(1, 11, 9, GAUSSIAN, 0.01)] * 2
    out = Partition(2, 22, 13, TRIANGULAR)
    for n, counts, alphas in (
        (400, (50, 200), NEAR_TWO),
        (1000, (50, 200), NEAR_TWO),
        (3000, (200,), (1.99, 2.0)),
    ):
        data = duplicate_runs(n, inputs[0].centers, seed)
        W = activations(inputs, data.X)
        assert set(np.unique(W)) == {0.0, 1.0}
        cells = W.argmax(axis=1).tolist()
        for alpha in alphas:
            ref = [12.0] * 81
            done = 0
            for epochs in counts:
                ref = onehot_conclusions(cells, data.z.tolist(), ref, alpha, epochs - done)
                done = epochs
                cfg = NeuroFuzzyConfig(alpha=alpha, epochs=epochs, init="zero")
                got = neurofuzzy_learn(data, inputs, out, cfg).conclusions.ravel()
                assert_matches_loop(got, np.array(ref), data.z)


def test_passes_match_onehot_recurrence_at_alpha_two(monkeypatch):
    # The passes without the epoch map: their rounding grows with rows x
    # epochs, and from 0, far below every target, it starts large. Fixed
    # blocks of 8 rows without the split miss the loop by more than 1e-12
    # here, while the epoch map built from them does not.
    monkeypatch.setattr(learning, "_powering_pays", lambda *a: False)
    inputs = [Partition(1, 11, 9, GAUSSIAN, 0.01)] * 2
    for seed in range(6):
        data = duplicate_runs(400, inputs[0].centers, seed)
        W = activations(inputs, data.X)
        cells = W.argmax(axis=1).tolist()
        for alpha in (1.9999, 1.99999, 2.0):
            got = np.zeros(81)
            ref = got.tolist()
            done = 0
            for epochs in (15, 50):
                # both run on from the previous count, the passes bit for bit
                ref = onehot_conclusions(cells, data.z.tolist(), ref, alpha, epochs - done)
                got = _sweep(W, data.z, got, alpha, epochs - done)
                done = epochs
                assert_matches_loop(got, np.array(ref), data.z)


@pytest.mark.parametrize("seed", range(3))
def test_sweep_matches_exact_replay_at_alpha_two(monkeypatch, seed):
    # Equal rows with different targets: at alpha = 2 each update
    # c <- 2 z - c carries its rounding on undamped, so the float loop itself
    # drifts from exact arithmetic. The reference is the loop replayed in
    # fractions, rounded once at the end. One cell powers from 2 epochs on,
    # so both paths are forced in turn.
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(100, 300))
    cells = [0] * rows
    W = np.ones((rows, 1))
    targets = rng.uniform(0.0, 10.0, rows)
    c = rng.uniform(0.0, 10.0, 1)
    exact = [Fraction(v) for v in c.tolist()]
    done = 0
    for epochs in (15, 50):
        exact = onehot_conclusions(
            cells, [Fraction(z) for z in targets.tolist()], exact, Fraction(2), epochs - done
        )
        done = epochs
        for pays in (False, True):
            monkeypatch.setattr(learning, "_powering_pays", lambda *a: pays)
            got = _sweep(W, targets, c, 2.0, epochs)
            assert_matches_loop(got, np.array([float(v) for v in exact]), c, targets)


@pytest.mark.parametrize("epochs", [1, 50])
def test_learners_refuse_targets_that_overflow(epochs):
    # Targets of +-1.7e308 are finite, but the updates overflow to inf and
    # NaN. The neuro-fuzzy learner used to warn and return 0 rules and 81
    # empty cells; now it raises, on both paths of _sweep, and no
    # RuntimeWarning (an error under pytest) comes first.
    rng = np.random.default_rng(0)
    z = np.where(np.arange(50) % 2, -1.7e308, 1.7e308)
    data = Dataset(rng.uniform(1.0, 11.0, (50, 2)), z)
    inputs, out = gauss_parts(n=9, lo=1.0, hi=11.0)
    assert learning._powering_pays(50, 81, epochs) == (epochs == 50)
    cfg = NeuroFuzzyConfig(alpha=1.0, epochs=epochs, init="zero")
    with pytest.raises(ValueError, match="a tuned conclusion is not finite"):
        neurofuzzy_learn(data, inputs, out, cfg)
    # cluster_learn's sums overflow to inf, never NaN, and FuzzyModel
    # refuses inf, with no warning first; so does the default cluster init.
    with pytest.raises(ValueError, match="must be finite"):
        cluster_learn(data, inputs, out)
    with pytest.raises(ValueError, match="must be finite"):
        neurofuzzy_learn(data, inputs, out, NeuroFuzzyConfig(alpha=1.0, epochs=epochs))


@pytest.mark.parametrize("pays", [False, True])
def test_neurofuzzy_zero_weight_row_keeps_an_overflowing_target_out(monkeypatch, pays):
    # The far example has zero weight on the one filled cell, and at
    # alpha = 2 its alpha * z overflows. Its zero row must leave the
    # conclusions as training without it does, on both paths of _sweep,
    # not turn 0 * inf into NaN.
    monkeypatch.setattr(learning, "_powering_pays", lambda *a: pays)
    inputs = [Partition(1, 11, 9, GAUSSIAN, 0.05)] * 2
    out = Partition(2, 22, 13, TRIANGULAR)
    X = [(9.8, 10.1), (10.4, 9.9), (10.9, 10.6), (11.0, 11.0), (-90.0, -90.0)]
    z = [19.9, 20.3, 21.5, 22.0, 1.5e308]
    cfg = NeuroFuzzyConfig(alpha=2.0, epochs=5)
    got = neurofuzzy_learn(Dataset(X, z), inputs, out, cfg).conclusions
    ref = neurofuzzy_learn(Dataset(X[:-1], z[:-1]), inputs, out, cfg).conclusions
    filled = ~np.isnan(ref)
    assert filled.sum() == 1
    assert np.array_equal(~np.isnan(got), filled)
    assert np.isfinite(got[filled]).all()
    assert_matches_loop(got[filled], ref[filled])


@pytest.mark.parametrize(
    "sets, epochs, powers",
    [
        (9, 1, False),
        (9, 11, False),
        (9, 12, True),
        (9, 13, False),
        (9, 14, True),
        (9, 15, True),
        (9, 16, True),
        (100, 50, False),
    ],
)
def test_neurofuzzy_takes_the_path_that_pays(monkeypatch, sets, epochs, powers):
    calls = spy_matrix_power(monkeypatch)
    inputs, out = gauss_parts(n=sets)
    data = make_plane_dataset(DataSpec(n=100, seed=0, domain=((0, 10), (0, 10))))
    # The zero init tunes every cell: 81 or 10^4 of them, and at 10^4 one
    # cells x cells product costs more than the 50 passes. The choice is not
    # monotone in the epochs: powering to 13 takes one product more than to
    # 12 (13 has three bits set), which costs more than the pass it saves.
    assert _powering_pays(100, sets**2, epochs) == powers
    neurofuzzy_learn(data, inputs, out, NeuroFuzzyConfig(epochs=epochs, init="zero"))
    assert bool(calls) == powers


def test_neurofuzzy_training_error_decreases():
    data = make_plane_dataset(DataSpec(n=400, seed=0))
    inputs = [Partition(1, 11, 9, GAUSSIAN), Partition(1, 11, 9, GAUSSIAN)]
    out = Partition(2, 22, 13, TRIANGULAR)

    def train_rms(epochs):
        cfg = NeuroFuzzyConfig(alpha=0.1, epochs=epochs)
        m = neurofuzzy_learn(data, inputs, out, cfg)
        errs = [(infer(m, ex.x) - ex.z) ** 2 for ex in data]
        return float(np.sqrt(np.mean(errs)))

    curve = [train_rms(k) for k in range(11)]
    for k in range(10):
        assert curve[k + 1] < curve[k], f"training RMS rose at epoch {k + 1}: {curve}"


def test_neurofuzzy_deterministic():
    data = make_plane_dataset(DataSpec(n=60, noise_level=0.1, seed=8))
    inputs = [Partition(1, 11, 5, GAUSSIAN), Partition(1, 11, 5, GAUSSIAN)]
    out = Partition(2, 22, 13, TRIANGULAR)
    cfg = NeuroFuzzyConfig(alpha=0.3, epochs=7)
    a = neurofuzzy_learn(data, inputs, out, cfg)
    b = neurofuzzy_learn(data, inputs, out, cfg)
    assert np.array_equal(a.conclusions, b.conclusions, equal_nan=True)


def test_cluster_fit_improves_with_more_data():
    # median true-plane RMS over seeds 0..9 must not get worse at n=400
    def rms(n, seed):
        data = make_plane_dataset(DataSpec(n=n, seed=seed))
        inputs = [Partition(1, 11, 9, TRIANGULAR), Partition(1, 11, 9, TRIANGULAR)]
        out = Partition(2, 22, 13, TRIANGULAR)
        m = cluster_learn(data, inputs, out)
        return model_error(m, 50)["rmse"]

    small = statistics.median(rms(100, s) for s in range(10))
    large = statistics.median(rms(400, s) for s in range(10))
    assert large <= small


def test_learners_take_read_only_data():
    # Sweep cells share one seed's datasets, whose arrays are read-only.
    # Every learner must train on them as on writeable arrays, to the bit.
    # The domain reaches past the sets, so wm_learn's fallback to best and
    # the neuro-fuzzy clamp run too; 1 and 50 epochs take both paths of
    # _sweep.
    spec = DataSpec(n=100, domain=((0.0, 12.0),) * 2, noise_level=0.1, seed=2)
    writeable = make_plane_dataset(spec)
    frozen = make_plane_dataset(spec)
    frozen.X.flags.writeable = frozen.z.flags.writeable = False
    tri = [Partition(1, 11, 9, TRIANGULAR)] * 2
    gauss = [Partition(1, 11, 9, GAUSSIAN)] * 2
    out = Partition(2, 22, 13, TRIANGULAR)
    assert [_powering_pays(len(writeable), 81, e) for e in (1, 50)] == [False, True]
    learners = [
        lambda data: wm_learn(data, tri, out),
        lambda data: cluster_learn(data, tri, out),
        lambda data: cluster_learn(data, gauss, out),
    ] + [
        lambda data, cfg=NeuroFuzzyConfig(epochs=epochs, init=init): neurofuzzy_learn(
            data, gauss, out, cfg
        )
        for init in INITS
        for epochs in (1, 50)
    ]
    for learn in learners:
        a, b = learn(frozen), learn(writeable)
        assert a.conclusions.tobytes() == b.conclusions.tobytes()
        assert a.degrees.tobytes() == b.degrees.tobytes()
    assert frozen == writeable
