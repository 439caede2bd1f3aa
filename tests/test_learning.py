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
    plane_truth,
    wm_learn,
)

from fuzzgrid import learning
from fuzzgrid.learning import _POWER_EPOCHS, INITS, _sweep, _tuning_weights

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
    inputs, out = tri_parts()
    empty = Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="empty dataset"):
        wm_learn(empty, inputs, out)
    with pytest.raises(ValueError, match="empty dataset"):
        cluster_learn(empty, inputs, out)
    ginputs, gout = gauss_parts()
    with pytest.raises(ValueError, match="empty dataset"):
        neurofuzzy_learn(empty, ginputs, gout, NeuroFuzzyConfig())


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
    # on every filled cell and is dropped.
    narrowest = [Partition(1, 11, 9, GAUSSIAN, 0.05), Partition(1, 11, 9, GAUSSIAN, 0.05)]
    corner = Dataset(
        [(9.8, 10.1), (10.4, 9.9), (10.9, 10.6), (11.0, 11.0), (-90.0, -90.0)],
        [19.9, 20.3, 21.5, 22.0, 3.0],
    )
    three = [Partition(0, 1, 4, GAUSSIAN, 0.7) for _ in range(3)]
    cube = np.random.default_rng(43).uniform(-0.2, 1.2, (50, 3))
    cases = [
        (make_plane_dataset(DataSpec(n=300, noise_level=0.3, seed=5)), wide, 81, 300),
        (half, narrow, 45, 200),
        (corner, narrowest, 1, 4),
        (Dataset(cube, [sum(x) for x in cube.tolist()]), three, 64, 50),
    ]
    for data, inputs, cells, rows in cases:
        filled = cluster_learn(data, inputs, out).filled_mask()
        flat_idx = np.flatnonzero(filled.ravel())
        weights, targets = _tuning_weights(data, inputs, flat_idx)
        ref_weights, ref_targets = tuning_weights(data, inputs, flat_idx)
        assert weights.shape == (rows, cells)
        assert weights.flags.c_contiguous
        assert np.array_equal(weights, np.array(ref_weights))
        assert np.array_equal(targets, ref_targets)


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


# Epoch counts on both sides of the choice between the sweep and powering.
EPOCHS = (1, _POWER_EPOCHS - 1, _POWER_EPOCHS, 50)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 100, 1000])
def test_neurofuzzy_matches_per_example_loop(n):
    # n straddles the 32-row blocks of the sweep.
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
            for alpha in alphas:
                ref = start.copy()
                done = 0
                for epochs in EPOCHS:
                    # the loop runs on from the previous count, bit for bit
                    ref.flat[flat_idx] = neurofuzzy_conclusions(
                        weights, targets, ref.flat[flat_idx], alpha, epochs - done
                    )
                    done = epochs
                    cfg = NeuroFuzzyConfig(alpha=alpha, epochs=epochs, init=init)
                    got = neurofuzzy_learn(data, inputs, out, cfg).conclusions
                    filled = ~np.isnan(ref)
                    assert np.array_equal(~np.isnan(got), filled)
                    assert_matches_loop(got[filled], ref[filled])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sweep_matches_per_example_loop(data):
    rows = data.draw(st.integers(1, 80), label="rows")
    cells = data.draw(st.integers(1, 20), label="cells")
    W = data.draw(hnp.arrays(np.float64, (rows, cells), elements=st.floats(0.0, 1.0)), label="W")
    W[W.sum(axis=1) == 0.0] = 1.0
    W /= W.sum(axis=1)[:, None]
    values = st.floats(-100.0, 100.0)
    targets = data.draw(hnp.arrays(np.float64, rows, elements=values), label="targets")
    c = data.draw(hnp.arrays(np.float64, cells, elements=values), label="c")
    alpha = data.draw(st.floats(0.0, 2.0), label="alpha")
    epochs = data.draw(
        st.sampled_from([0, 1, 2, 3, 4, 5, _POWER_EPOCHS - 1, _POWER_EPOCHS, 50]), label="epochs"
    )
    got = _sweep(W, targets, c, alpha, epochs)
    ref = neurofuzzy_conclusions(W, targets, c, alpha, epochs)
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


@pytest.mark.parametrize("seed", range(6))
def test_neurofuzzy_matches_onehot_recurrence_near_alpha_two(seed):
    # Runs of equal one-hot rows at alpha near 2 make K_b alternate in sign
    # (see learning._GROWTH). Long runs and many epochs pin the split of
    # grown blocks: fixed blocks of 16 rows without it miss the loop by more
    # than 1e-12 here, and blocks of 8 in the next test.
    inputs = [Partition(1, 11, 9, GAUSSIAN, 0.01)] * 2
    out = Partition(2, 22, 13, TRIANGULAR)
    for n, counts in ((400, (50, 200)), (1000, (50, 200)), (3000, (200,))):
        data = duplicate_runs(n, inputs[0].centers, seed)
        W = activations(inputs, data.X)
        assert set(np.unique(W)) == {0.0, 1.0}
        cells = W.argmax(axis=1).tolist()
        for alpha in (1.99, 2.0):
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
        got = np.zeros(81)
        ref = got.tolist()
        done = 0
        for epochs in (_POWER_EPOCHS - 1, 50):
            # both run on from the previous count, the passes bit for bit
            ref = onehot_conclusions(cells, data.z.tolist(), ref, 2.0, epochs - done)
            got = _sweep(W, data.z, got, 2.0, epochs - done)
            done = epochs
            assert_matches_loop(got, np.array(ref), data.z)


@pytest.mark.parametrize("seed", range(3))
def test_sweep_matches_exact_replay_at_alpha_two(seed):
    # Equal rows with different targets: at alpha = 2 each update
    # c <- 2 z - c carries its rounding on undamped, so the float loop itself
    # drifts from exact arithmetic. The reference is the loop replayed in
    # fractions, rounded once at the end.
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(100, 300))
    cells = [0] * rows
    W = np.ones((rows, 1))
    targets = rng.uniform(0.0, 10.0, rows)
    c = rng.uniform(0.0, 10.0, 1)
    exact = [Fraction(v) for v in c.tolist()]
    done = 0
    for epochs in (_POWER_EPOCHS - 1, 50):
        exact = onehot_conclusions(
            cells, [Fraction(z) for z in targets.tolist()], exact, Fraction(2), epochs - done
        )
        done = epochs
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


@pytest.mark.parametrize(
    "sets, epochs, powers",
    [(9, _POWER_EPOCHS - 1, False), (9, _POWER_EPOCHS, True), (100, 50, False)],
)
def test_neurofuzzy_takes_the_path_that_pays(monkeypatch, sets, epochs, powers):
    calls = []
    monkeypatch.setattr(np.linalg, "matrix_power", lambda *a: calls.append(a) or a[0])
    inputs, out = gauss_parts(n=sets)
    data = make_plane_dataset(DataSpec(n=100, seed=0, domain=((0, 10), (0, 10))))
    # the zero init tunes every cell: 81 or 10^4 of them, and at 10^4 one
    # cells x cells product costs more than the 50 passes
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
        return model_error(m, plane_truth, 50)["rmse"]

    small = statistics.median(rms(100, s) for s in range(10))
    large = statistics.median(rms(400, s) for s in range(10))
    assert large <= small
