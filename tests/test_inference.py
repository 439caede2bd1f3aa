import re

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
    activations,
    cluster_learn,
    infer,
    load_model,
    rule_diff,
    save_model,
)

from fuzzgrid import inference
from fuzzgrid.cli import main

from oracles import center_average, einsum_sum


def linear_model(n=3, lo=0.0, hi=10.0):
    px = Partition(lo, hi, n, TRIANGULAR)
    py = Partition(lo, hi, n, TRIANGULAR)
    pout = Partition(2 * lo, 2 * hi, 13, TRIANGULAR)
    conclusions = px.centers[:, None] + py.centers[None, :]
    return FuzzyModel([px, py], pout, conclusions)


def active_cells(model, x):
    """The cells x activates, {cell index tuple: weight}, in index order."""
    w = activations(model.input_partitions, np.array([x], dtype=float)).reshape(model.shape)
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
        filled = m.filled_mask()
        active = [m.conclusions[cell] for cell in active_cells(m, (x, y)) if filled[cell]]
        assert min(active) - 1e-12 <= f <= max(active) + 1e-12


def test_infer_rejects_non_finite_inputs():
    m = linear_model()
    for x in ((float("nan"), 5.0), (5.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            infer(m, x)


def test_infer_rejects_wrong_input_count():
    m = linear_model()
    for x in ((5.0,), (5.0, 5.0, 5.0)):
        with pytest.raises(ValueError, match="expected 2 inputs"):
            infer(m, x)


def test_outputs_rejects_wrong_axis_count():
    # Three axes on a 2-input model used to give a value, the third ignored.
    m = linear_model()
    axes = [np.array([5.0])] * 3
    for count in (1, 3):
        with pytest.raises(ValueError, match=f"expected 2 axes, got {count}"):
            m.outputs(axes[:count])


@pytest.mark.parametrize("kind", [TRIANGULAR, GAUSSIAN])
@pytest.mark.parametrize("sets", [(4, 5), (4, 3, 5), (7,)])
def test_infer_matches_center_average_oracle(kind, sets):
    # Random conclusions with about 40% of the cells empty, queried inside
    # and up to 3 units outside [0, 10] on every axis.
    rng = np.random.default_rng(17)
    inputs = [Partition(0, 10, n, kind, 0.4) for n in sets]
    conclusions = rng.uniform(0, 20, size=sets)
    conclusions[rng.uniform(size=sets) < 0.4] = np.nan
    m = FuzzyModel(inputs, Partition(0, 20, 13, TRIANGULAR), conclusions)
    points = rng.uniform(-3, 13, size=(300, len(sets)))
    gaps = 0
    for x in points:
        ref = center_average(m, x.tolist())
        got = infer(m, x)
        if ref is None:
            gaps += 1
            assert got is None
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
    assert ((points < 0) | (points > 10)).any(axis=1).sum() > 100
    assert gaps > 0 if kind == TRIANGULAR else gaps == 0


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


def test_rule_diff_refuses_models_of_other_input_domains():
    a = linear_model()
    px, py = a.input_partitions
    b = FuzzyModel([px, Partition(1, 11, 3, TRIANGULAR)], a.output_partition, a.conclusions)
    message = "input domains differ: [0.0, 10.0] vs [1.0, 11.0]"
    with pytest.raises(ValueError, match=re.escape(message)):
        rule_diff(a, b)
    # set counts and kinds are the grid shape's and the cells' business
    c = FuzzyModel([px, Partition(0, 10, 3, GAUSSIAN)], a.output_partition, a.conclusions)
    assert rule_diff(a, c) == rule_diff(a, a)


@pytest.mark.parametrize("lo, hi, n", [(0, 20, 5), (0, 100, 13)])
def test_rule_diff_refuses_output_partitions_of_other_range_or_count(lo, hi, n):
    a = linear_model()
    b = FuzzyModel(a.input_partitions, Partition(lo, hi, n, TRIANGULAR), a.conclusions)
    message = f"output partitions differ: {a.output_partition!r} vs {b.output_partition!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        rule_diff(a, b)
    # the set indices depend on the range and the count only
    c = FuzzyModel(a.input_partitions, Partition(0, 20, 13, GAUSSIAN, 0.3), a.conclusions)
    assert rule_diff(a, c) == rule_diff(a, a)


def test_rule_diff_classifies_each_model_on_its_own_output_sets():
    # One ulp above the midpoint of two sets: the triangular degrees round
    # to a tie, which the lower set wins, and the gaussian ones do not.
    lo, hi, x = -83.5909987968756, 280.18263149562154, 98.29581634937298
    tri, gauss = Partition(lo, hi, 2, TRIANGULAR), Partition(lo, hi, 2, GAUSSIAN)
    assert (tri.best(x), gauss.best(x)) == (0, 1)
    parts = [Partition(0, 10, 2, TRIANGULAR)] * 2
    a = FuzzyModel(parts, tri, np.full((2, 2), x))
    b = FuzzyModel(parts, gauss, np.full((2, 2), x))
    assert rule_diff(a, b) == {"unchanged": 0, "changed": 4, "only_a": 0, "only_b": 0}
    assert rule_diff(b, a) == rule_diff(a, b)
    assert rule_diff(b, b)["unchanged"] == 4


@settings(max_examples=200, deadline=None)
@given(
    draw=st.data(),
    shape=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    n=st.integers(2, 15),
    b_sets=st.sampled_from([(TRIANGULAR, 0.5), (GAUSSIAN, 0.5), (GAUSSIAN, 0.2)]),
)
def test_rule_diff_counts_match_a_per_cell_loop(draw, shape, n, b_sets):
    # Conclusions at the output centers, exactly on the midpoints between
    # two of them (where the sets tie), anywhere in range and beyond it;
    # b's output sets may be of another kind or width.
    pa = Partition(0, 20, n, TRIANGULAR)
    pb = Partition(0, 20, n, *b_sets)
    mids = (pa.centers[:-1] + pa.centers[1:]) / 2
    value = st.one_of(
        st.sampled_from(pa.centers.tolist()),
        st.sampled_from(mids.tolist()),
        st.floats(-5, 25),
    )
    inputs = [Partition(0, 10, k, TRIANGULAR) for k in shape]

    def model(output):
        conclusions = draw.draw(hnp.arrays(float, shape, elements=value))
        conclusions[draw.draw(hnp.arrays(bool, shape))] = np.nan
        return FuzzyModel(inputs, output, conclusions)

    a, b = model(pa), model(pb)
    want = {"unchanged": 0, "changed": 0, "only_a": 0, "only_b": 0}
    for ca, cb in zip(a.conclusions.flat, b.conclusions.flat):
        if np.isnan(ca) and np.isnan(cb):
            continue
        if np.isnan(cb):
            want["only_a"] += 1
        elif np.isnan(ca):
            want["only_b"] += 1
        else:
            want["changed" if pa.best(ca) != pb.best(cb) else "unchanged"] += 1
    assert rule_diff(a, b) == want


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


@pytest.mark.parametrize(
    "header",
    [
        # one partition's centers would take 7.28 TiB; the grid's count is
        # negative, so only the per-partition limit catches the first
        "input triangular 1 11 1000000000000 0.5\ninput triangular 1 11 -1 0.5\n"
        "output triangular 2 22 13 0.5\n",
        "input triangular 1 11 9 0.5\ninput triangular 1 11 9 0.5\n"
        "output triangular 2 22 1000000000000 0.5\n",
        # every partition is small, but the grid has 10^12 cells
        "input triangular 1 11 10000 0.5\n" * 3 + "output triangular 2 22 13 0.5\n",
    ],
    ids=["huge-input", "huge-output", "huge-grid"],
)
def test_load_rejects_oversized_headers_before_allocating(tmp_path, capsys, header):
    # These used to raise numpy's MemoryError, and eval exited 1 with a traceback.
    bad = tmp_path / "huge.model"
    bad.write_text("# fuzzgrid model\n" + header + "0 0 0 5.0 1.0\n")
    with pytest.raises(ValueError, match="exceeds the limit of 10000000 cells"):
        load_model(bad)
    assert main(["eval", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"cannot load model {bad}: a model of " in err and "output sets exceeds the limit" in err


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


# Each malformed line after HEADER's three, with the start of its error.
MALFORMED_LINES = [
    ("0 x 5.0 1.0\n", "line 4: invalid literal for int() with base 10: 'x'"),
    ("0 0 abc 1.0\n", "line 4: could not convert string to float: 'abc'"),
    ("0 0 1.0 1.0\n-1 0 5 1\n", "line 5: cell index (-1, 0) out of range for grid (3, 3)"),
    ("0 5 1\n", "line 4: bad rule line: '0 5 1'"),
    ("0 0 1.0 1.0\ninput triangular 0 10 3 0.5\n", "line 5: partition header after rule lines"),
    ("output triangular 0 20 3.5 0.5\n", "line 4: invalid literal for int() with base 10: '3.5'"),
    ("input triangular 0 10 3\n", "line 4: bad partition header line: 'input triangular 0 10 3'"),
]


@pytest.mark.parametrize("lines,message", MALFORMED_LINES)
def test_load_names_the_line_of_every_malformed_line(tmp_path, lines, message):
    bad = tmp_path / "bad.model"
    bad.write_text(HEADER + lines)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
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


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_model_rejects_infinite_conclusions_and_degrees(value):
    p = Partition(0, 10, 3, TRIANGULAR)
    pout = Partition(0, 20, 13, TRIANGULAR)
    conclusions = np.full((3, 3), 5.0)
    conclusions[1, 2] = value
    with pytest.raises(ValueError, match="must be finite"):
        FuzzyModel([p, p], pout, conclusions)
    degrees = np.ones((3, 3))
    degrees[2, 0] = value
    with pytest.raises(ValueError, match="must be finite"):
        FuzzyModel([p, p], pout, np.full((3, 3), 5.0), degrees)
    conclusions[1, 2] = np.nan  # NaN still marks an empty cell
    assert FuzzyModel([p, p], pout, conclusions).empty_count() == 1


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


# ---------------------------------------------------------------------------
# the grid kernels of FuzzyModel.outputs


def window_matches_einsum(mats, table):
    """The window sum and the einsum of one table, compared bit for bit
    (int64 views, so NaN and the sign of zero count too)."""
    firsts, widths = inference._support_windows(mats)
    (got,) = inference._window_sums(mats, firsts, widths, [table])
    want = einsum_sum(mats, table)
    return np.array_equal(got.view(np.int64), want.view(np.int64))


def degree_mats(partitions, axes):
    return [p.degrees(np.clip(a, p.lo, p.hi)) for p, a in zip(partitions, axes)]


def test_window_is_three_wide_where_centers_round():
    # lo + spacing * i rounds, so at its own centers this partition gives a
    # neighbour a degree of 1.1e-16: a third nonzero column in some rows.
    p = Partition(0.1, 0.7, 7, TRIANGULAR)
    mats = degree_mats([p, p], [p.centers, p.centers])
    assert inference._support_windows(mats)[1] == [3, 3]
    table = np.random.default_rng(3).normal(size=(7, 7))
    assert window_matches_einsum(mats, table)


@pytest.mark.parametrize("sets", [(9, 9), (2, 12), (12, 2), (3, 3), (2, 2)])
def test_window_sum_is_bit_identical_to_einsum(sets):
    # Points inside and up to 3 units outside [0, 10], three to seven per
    # axis. Every triangular grid of two inputs takes the window sum, the
    # smallest ones too.
    rng = np.random.default_rng(sum(sets))
    parts = [Partition(0, 10, n, TRIANGULAR) for n in sets]
    table = rng.normal(size=sets) * 10.0 ** rng.integers(-4, 5, size=sets)
    table[rng.uniform(size=sets) < 0.3] = 0.0
    for _ in range(20):
        axes = [rng.uniform(-3, 13, size=rng.integers(3, 8)) for _ in sets]
        assert window_matches_einsum(degree_mats(parts, axes), table)


def test_window_of_a_narrow_gaussian():
    # sigma = 0.08 spacing: a degree underflows to 0 from 3 spacings out,
    # so 5 of the 30 columns are nonzero.
    p = Partition(0, 1, 30, GAUSSIAN, 0.08)
    axis = np.linspace(0, 1, 50)
    mats = degree_mats([p, p], [axis, axis])
    assert inference._support_windows(mats)[1] == [5, 5]
    table = np.random.default_rng(8).uniform(0, 20, size=(30, 30))
    assert window_matches_einsum(mats, table)


def test_zero_row_stays_a_gap_and_does_not_widen_the_window():
    # sigma = 0.01 spacing: between two centers every degree underflows to 0.
    p = Partition(0, 1, 9, GAUSSIAN, 0.01)
    axis = np.linspace(0, 1, 50)
    mats = degree_mats([p, p], [axis, axis])
    zero_rows = ~mats[0].any(axis=1)
    assert zero_rows.sum() > 10
    assert inference._support_windows(mats)[1] == [1, 1]
    m = FuzzyModel([p, p], Partition(0, 20, 13, TRIANGULAR), np.full((9, 9), 5.0))
    out = m.outputs([axis, axis])
    # (products of two tiny degrees underflow to 0 and make more gaps)
    assert np.isnan(out[zero_rows]).all() and np.isnan(out[:, zero_rows]).all()
    assert not np.isnan(out).all()
    assert window_matches_einsum(mats, np.ones((9, 9)))
    assert window_matches_einsum(mats, m.conclusions)


@settings(max_examples=100, deadline=None)
@given(
    draw=st.data(),
    # at most 4096 cells
    sets=st.lists(st.integers(2, 64), min_size=2, max_size=2),
)
def test_window_sum_matches_einsum_on_random_triangular_partitions(draw, sets):
    parts = []
    for n in sets:
        lo = draw.draw(st.floats(-1e3, 1e3))
        span = draw.draw(st.floats(1e-3, 1e3))
        parts.append(Partition(lo, lo + span, n, TRIANGULAR))
    axes = [
        np.array(draw.draw(st.lists(st.floats(p.lo - 1.0, p.hi + 1.0), min_size=3, max_size=6)))
        for p in parts
    ]
    table = draw.draw(hnp.arrays(float, tuple(sets), elements=st.floats(-1e6, 1e6)))
    assert window_matches_einsum(degree_mats(parts, axes), table)


def test_window_sum_matches_oracle_above_the_bit_identical_size():
    # 12000 cells: past 8192 the einsum regroups some of its terms, so the
    # window sum is checked against the plain loop instead.
    rng = np.random.default_rng(12)
    parts = [Partition(0, 10, 60, TRIANGULAR), Partition(0, 10, 200, TRIANGULAR)]
    conclusions = rng.uniform(0, 20, size=(60, 200))
    conclusions[rng.uniform(size=(60, 200)) < 0.3] = np.nan
    m = FuzzyModel(parts, Partition(0, 20, 13, TRIANGULAR), conclusions)
    xs, ys = np.linspace(-1, 11, 4), np.linspace(0.05, 9.95, 3)
    out = m.outputs([xs, ys])
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            ref = center_average(m, (float(x), float(y)))
            assert out[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", [TRIANGULAR, GAUSSIAN])
def test_three_input_grid_matches_center_average_oracle(kind):
    # Three to five points per axis, inside and up to 3 units outside
    # [0, 10], with about 40% of the cells empty.
    rng = np.random.default_rng(29)
    sets = (5, 9, 4)
    parts = [Partition(0, 10, n, kind, 0.4) for n in sets]
    conclusions = rng.uniform(0, 20, size=sets)
    conclusions[rng.uniform(size=sets) < 0.4] = np.nan
    m = FuzzyModel(parts, Partition(0, 20, 13, TRIANGULAR), conclusions)
    axes = [rng.uniform(-3, 13, size=rng.integers(3, 6)) for _ in sets]
    out = m.outputs(axes)
    for idx in np.ndindex(out.shape):
        ref = center_average(m, [float(a[i]) for a, i in zip(axes, idx)])
        if ref is None:
            assert np.isnan(out[idx])
        else:
            assert out[idx] == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "sets, kind, width_factor, points, uses_window",
    [
        ((9, 9), TRIANGULAR, 0.5, 50, True),
        ((9, 9, 9), TRIANGULAR, 0.5, 5, False),  # three inputs
        ((3, 3), TRIANGULAR, 0.5, 50, True),  # windows of 4 of the 9 cells
        ((9, 9), GAUSSIAN, 0.5, 50, False),  # gaussian grids are contracted
        ((9,), TRIANGULAR, 0.5, 50, False),  # one input
        ((9, 9), TRIANGULAR, 0.5, 1, False),  # one or two points per axis
        ((2, 12), TRIANGULAR, 0.5, 2, False),
        ((30, 30), GAUSSIAN, 0.08, 50, False),  # even with windows of 5 of 30 sets
    ],
)
def test_outputs_takes_the_window_sum_only_on_two_input_triangular_grids(
    monkeypatch, sets, kind, width_factor, points, uses_window
):
    # The support windows are found only for the window sum: a gaussian
    # grid or an infer call never looks for them.
    calls = []

    def spy(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)

        return wrapper

    for name in ("_support_windows", "_window_sums"):
        monkeypatch.setattr(inference, name, spy(getattr(inference, name)))
    parts = [Partition(0, 10, n, kind, width_factor) for n in sets]
    m = FuzzyModel(parts, Partition(0, 20, 13, TRIANGULAR), np.ones(sets))
    out = m.outputs([np.linspace(0, 10, points)] * len(sets))
    assert calls == (["_support_windows", "_window_sums"] if uses_window else [])
    assert np.allclose(out, 1.0, rtol=1e-12)
    calls.clear()
    assert infer(m, np.full(len(sets), 4.2)) == pytest.approx(1.0, rel=1e-12)
    assert calls == []
