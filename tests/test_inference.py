import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fuzzgrid import (
    GAUSSIAN,
    TRIANGULAR,
    Dataset,
    FuzzyModel,
    Partition,
    cluster_learn,
    infer,
    load_model,
    rule_diff,
    save_model,
)


def linear_model(n=3, lo=0.0, hi=10.0):
    px = Partition(lo, hi, n, TRIANGULAR)
    py = Partition(lo, hi, n, TRIANGULAR)
    pout = Partition(2 * lo, 2 * hi, 13, TRIANGULAR)
    conclusions = px.centers[:, None] + py.centers[None, :]
    return FuzzyModel([px, py], pout, conclusions)


def active_cells(model, x):
    """The cells x activates, {cell index tuple: weight}, in index order."""
    w = model.weight_grid(x)
    return {tuple(idx): w[tuple(idx)] for idx in np.argwhere(w > 0.0).tolist()}


def test_activation_examples():
    m = linear_model()
    assert active_cells(m, (5.0, 5.0)) == {(1, 1): 1.0}
    assert active_cells(m, (2.5, 5.0)) == {(0, 1): 0.5, (1, 1): 0.5}
    acts = active_cells(m, (2.5, 2.5))
    assert list(acts) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(w == 0.25 for w in acts.values())


def test_activation_weights_sum_to_one():
    m = linear_model(n=9, lo=1.0, hi=11.0)
    rng = np.random.default_rng(2)
    for x, y in rng.uniform(1, 11, size=(100, 2)):
        total = sum(active_cells(m, (x, y)).values())
        assert abs(total - 1.0) < 1e-12


def test_infer_linear_exact():
    m = linear_model()
    assert infer(m, (3.0, 8.0)) == pytest.approx(11.0, abs=1e-9)
    rng = np.random.default_rng(4)
    for x, y in rng.uniform(0, 10, size=(50, 2)):
        assert infer(m, (x, y)) == pytest.approx(x + y, abs=1e-9)


def test_infer_single_rule_and_gap():
    px = Partition(0, 10, 3, TRIANGULAR)
    py = Partition(0, 10, 3, TRIANGULAR)
    pout = Partition(0, 20, 13, TRIANGULAR)
    conclusions = np.full((3, 3), np.nan)
    conclusions[0, 0] = 7.0
    m = FuzzyModel([px, py], pout, conclusions)
    assert infer(m, (0.0, 0.0)) == 7.0
    assert infer(m, (2.0, 2.0)) == 7.0  # only active non-empty cell
    assert infer(m, (10.0, 10.0)) is None  # coverage gap, not an error


def test_infer_convexity():
    rng = np.random.default_rng(9)
    px = Partition(0, 10, 5, TRIANGULAR)
    py = Partition(0, 10, 5, TRIANGULAR)
    pout = Partition(0, 20, 13, TRIANGULAR)
    conclusions = rng.uniform(0, 20, size=(5, 5))
    conclusions[rng.uniform(size=(5, 5)) < 0.3] = np.nan
    m = FuzzyModel([px, py], pout, conclusions)
    for x, y in rng.uniform(0, 10, size=(200, 2)):
        f = infer(m, (x, y))
        if f is None:
            continue
        active = m.conclusions[(m.weight_grid((x, y)) > 0.0) & m.filled_mask()]
        assert min(active) - 1e-12 <= f <= max(active) + 1e-12


def test_infer_rejects_non_finite_inputs():
    m = linear_model()
    for x in ((float("nan"), 5.0), (5.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            infer(m, x)
        with pytest.raises(ValueError, match="finite"):
            m.weight_grid(x)


def test_cluster_model_permutation_invariant():
    rng = np.random.default_rng(21)
    X = rng.uniform(0, 10, size=(40, 2))
    px = Partition(0, 10, 5, TRIANGULAR)
    py = Partition(0, 10, 5, TRIANGULAR)
    pout = Partition(0, 20, 13, TRIANGULAR)
    a = cluster_learn(Dataset(X, X[:, 0] + X[:, 1]), [px, py], pout)
    order = rng.permutation(len(X))
    b = cluster_learn(Dataset(X[order], X[order, 0] + X[order, 1]), [px, py], pout)
    for x, y in rng.uniform(0, 10, size=(50, 2)):
        fa, fb = infer(a, (x, y)), infer(b, (x, y))
        assert fa == pytest.approx(fb, rel=1e-12, abs=1e-12)


def test_rule_diff_self():
    m = linear_model()
    d = rule_diff(m, m)
    assert d == {"unchanged": 9, "changed": 0, "only_a": 0, "only_b": 0}


def test_rule_diff_cases():
    a = linear_model()
    conclusions = a.conclusions.copy()
    conclusions[0, 0] = np.nan
    b = FuzzyModel(a.input_partitions, a.output_partition, conclusions)
    d = rule_diff(a, b)
    assert d["only_a"] == 1 and d["only_b"] == 0
    assert d["unchanged"] == 8 and d["changed"] == 0

    # shift one conclusion a full output set over
    conclusions = a.conclusions.copy()
    conclusions[1, 1] += a.output_partition.spacing
    c = FuzzyModel(a.input_partitions, a.output_partition, conclusions)
    d = rule_diff(a, c)
    assert d["changed"] == 1 and d["unchanged"] == 8


def test_rule_diff_shape_mismatch():
    a = linear_model(n=3)
    b = linear_model(n=5)
    with pytest.raises(ValueError, match="shapes differ"):
        rule_diff(a, b)


def test_rule_diff_counts_skip_double_empty():
    px = Partition(0, 10, 3, TRIANGULAR)
    py = Partition(0, 10, 3, TRIANGULAR)
    pout = Partition(0, 20, 13, TRIANGULAR)
    conclusions = np.full((3, 3), np.nan)
    conclusions[0, 0] = 5.0
    m = FuzzyModel([px, py], pout, conclusions)
    d = rule_diff(m, m)
    assert sum(d.values()) == 1  # eight doubly-empty cells not counted


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    px = Partition(1, 11, 9, GAUSSIAN, 0.5)
    py = Partition(1, 11, 9, GAUSSIAN, 0.5)
    pout = Partition(2, 22, 13, TRIANGULAR)
    conclusions = rng.uniform(2, 22, size=(9, 9))
    conclusions[rng.uniform(size=(9, 9)) < 0.2] = np.nan
    degrees = np.where(np.isnan(conclusions), np.nan, rng.uniform(size=(9, 9)))
    m = FuzzyModel([px, py], pout, conclusions, degrees)

    path = tmp_path / "m.model"
    save_model(m, path)
    loaded = load_model(path)

    assert loaded.input_partitions[0] == px
    assert loaded.input_partitions[1] == py
    assert loaded.output_partition == pout
    # 17 significant digits means floats survive the trip exactly
    assert np.array_equal(loaded.conclusions, m.conclusions, equal_nan=True)
    assert np.array_equal(loaded.degrees, m.degrees, equal_nan=True)


@settings(deadline=None)
@given(st.data())
def test_model_file_round_trip_is_bit_exact(tmp_path_factory, draw):
    # Random partitions and grids: finite conclusions and degrees, NaN in
    # both for an empty cell. Loading restores every float bit for bit,
    # keeps empty cells empty, and saving again writes the same bytes.
    def partition():
        lo = draw.draw(st.floats(-1e6, 1e6), label="lo")
        span = draw.draw(st.floats(1e-3, 1e6), label="span")
        n = draw.draw(st.integers(2, 4), label="n")
        kind = draw.draw(st.sampled_from([TRIANGULAR, GAUSSIAN]), label="kind")
        wf = draw.draw(st.floats(1e-3, 10.0), label="width factor")
        return Partition(lo, lo + span, n, kind, wf)

    inputs = [partition() for _ in range(draw.draw(st.integers(1, 3), label="d"))]
    output = partition()
    shape = tuple(p.n for p in inputs)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    conclusions = draw.draw(hnp.arrays(np.float64, shape, elements=finite), label="c")
    degrees = draw.draw(hnp.arrays(np.float64, shape, elements=finite), label="deg")
    empty = draw.draw(hnp.arrays(np.bool_, shape), label="empty")
    conclusions[empty] = np.nan
    degrees[empty] = np.nan
    model = FuzzyModel(inputs, output, conclusions, degrees)

    path = tmp_path_factory.mktemp("model") / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.input_partitions == inputs
    assert loaded.output_partition == output
    assert np.array_equal(loaded.filled_mask(), ~empty)
    assert np.isnan(loaded.degrees[empty]).all()
    assert loaded.conclusions[~empty].tobytes() == conclusions[~empty].tobytes()
    assert loaded.degrees[~empty].tobytes() == degrees[~empty].tobytes()
    again = path.with_name("again.model")
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_serialization_three_inputs(tmp_path):
    parts = [Partition(0, 1, 3, TRIANGULAR) for _ in range(3)]
    pout = Partition(0, 3, 5, TRIANGULAR)
    conclusions = np.full((3, 3, 3), np.nan)
    conclusions[1, 2, 0] = 0.625
    m = FuzzyModel(parts, pout, conclusions)
    path = tmp_path / "m3.model"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.shape == (3, 3, 3)
    assert loaded.conclusions[1, 2, 0] == 0.625
    assert loaded.rule_count() == 1


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("input triangular 0 10 3 0.5\n0 0 1.0 1.0\n")
    with pytest.raises(ValueError, match="partition headers"):
        load_model(bad)

    bad.write_text(
        "input triangular 0 10 3 0.5\n"
        "input triangular 0 10 3 0.5\n"
        "output triangular 0 20 13 0.5\n"
        "0 1.0 1.0\n"
    )
    with pytest.raises(ValueError, match="bad rule line"):
        load_model(bad)

    bad.write_text(
        "input triangular 0 10 3 0.5\n"
        "input triangular 0 10 3 0.5\n"
        "output triangular 0 20 13 0.5\n"
        "0 5 1.0 1.0\n"
    )
    with pytest.raises(ValueError, match="out of range"):
        load_model(bad)


HEADER = (
    "input triangular 0 10 3 0.5\n"
    "input triangular 0 10 3 0.5\n"
    "output triangular 0 20 13 0.5\n"
)


def test_load_rejects_duplicate_cells(tmp_path):
    bad = tmp_path / "dup.model"
    bad.write_text(HEADER + "0 0 1.0 1.0\n1 1 2.0 1.0\n0 0 3.0 1.0\n")
    with pytest.raises(ValueError, match=r"line 6: cell \(0, 0\) appears twice"):
        load_model(bad)


def test_load_rejects_non_finite_values(tmp_path):
    bad = tmp_path / "nan.model"
    for rule in ("1 1 nan 1.0", "1 1 2.0 inf", "1 1 -inf 1.0"):
        bad.write_text(HEADER + "0 0 1.0 1.0\n" + rule + "\n")
        with pytest.raises(ValueError, match="line 5: conclusion and degree must be finite"):
            load_model(bad)


def test_model_shape_validation():
    px = Partition(0, 10, 3, TRIANGULAR)
    py = Partition(0, 10, 5, TRIANGULAR)
    pout = Partition(0, 20, 13, TRIANGULAR)
    with pytest.raises(ValueError, match="does not match partitions"):
        FuzzyModel([px, py], pout, np.zeros((3, 3)))


def test_rules_listing():
    m = linear_model()
    filled = m.filled_mask()
    assert m.rule_count() == 9 and m.empty_count() == 0
    assert np.argwhere(filled).tolist()[0] == [0, 0]
    assert m.conclusions[0, 0] == 0.0
    assert np.all(m.degrees[filled] == 1.0)

    conclusions = m.conclusions.copy()
    conclusions[0, 0] = np.nan
    holed = FuzzyModel(m.input_partitions, m.output_partition, conclusions)
    assert holed.rule_count() == 8 and holed.empty_count() == 1
    assert np.argwhere(holed.filled_mask()).tolist()[0] == [0, 1]
    assert np.isnan(holed.degrees[0, 0])
