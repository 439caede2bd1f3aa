import math

import pytest

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from fuzzgrid import (
    CLUSTERED,
    TRIANGULAR,
    UNIFORM,
    DataSpec,
    Dataset,
    Partition,
    Rng,
    make_plane_dataset,
    read_dataset,
    write_dataset,
)
from fuzzgrid.datagen import _box_muller, _draw_inputs

from oracles import RefSplitMix, plane_dataset

BLOB_CENTERS = ((4.0, 4.0), (8.0, 8.0))
BLOB_SIGMA = 0.8  # 8% of the default 10-unit range


# ---------------------------------------------------------------------------
# generator core

def test_splitmix_known_outputs():
    # published SplitMix64 test vectors for seed 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = Rng(0)
    assert [rng.next_u64s(1)[0] for _ in range(3)] == expected
    ref = RefSplitMix(0)
    assert [ref.step() for _ in range(3)] == expected


def test_vectorized_draws_match_reference():
    # Seeds are masked to 64 bits, so -1 and 2**64 - 1 are one stream.
    for seed in (0, 1, 2**64 - 1, -1):
        rng = Rng(seed)
        ref = RefSplitMix(seed)
        expected = [ref.step() for _ in range(10_001)]
        assert rng.next_u64s(10_000).tolist() == expected[:-1]
        assert rng.next_u64s(1)[0] == expected[-1]  # the block left the stream after it
    assert Rng(-1).next_u64s(100).tolist() == Rng(2**64 - 1).next_u64s(100).tolist()


def test_uniform_is_top_53_bits():
    rng = Rng(123)
    ref = RefSplitMix(123)
    for _ in range(100):
        assert rng.uniforms(1)[0] == (ref.step() >> 11) * 2.0**-53


def test_uniform_range():
    rng = Rng(99)
    draws = rng.uniforms(10000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0
    assert 0.45 < draws.mean() < 0.55


def test_gauss_is_box_muller_cosine():
    rng = Rng(5)
    ref = RefSplitMix(5)
    for _ in range(50):
        u1 = ref.real()
        u2 = ref.real()
        if u1 == 0.0:
            u1 = 2.0**-53
        expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        assert _box_muller(*rng.uniforms(2).tolist()) == expected


# ---------------------------------------------------------------------------
# input sampling

def test_uniform_draw_order_is_example_major():
    spec = DataSpec(n=5, seed=42)
    pts = _draw_inputs(spec, Rng(spec.seed)).tolist()
    ref = RefSplitMix(42)
    for x, y in pts:
        assert x == 1.0 + ref.real() * 10.0
        assert y == 1.0 + ref.real() * 10.0
    # the recorded first point for seed 42, as a determinism anchor
    assert pts[0] == [8.415648787718233, 2.599103928769201]


def test_uniform_inputs_stay_in_domain():
    domain = ((-3.0, 2.0), (10.0, 40.0))
    spec = DataSpec(n=500, domain=domain, seed=11)
    pts = _draw_inputs(spec, Rng(spec.seed)).tolist()
    for x, y in pts:
        assert -3.0 <= x < 2.0
        assert 10.0 <= y < 40.0


def test_clustered_inputs_clamped_to_domain():
    spec = DataSpec(n=2000, distribution=CLUSTERED, seed=3)
    pts = _draw_inputs(spec, Rng(spec.seed)).tolist()
    for x, y in pts:
        assert 1.0 <= x <= 11.0
        assert 1.0 <= y <= 11.0


def test_clustered_concentrates_near_blobs():
    def blob_fraction(distribution):
        spec = DataSpec(n=1000, distribution=distribution, seed=7)
        pts = _draw_inputs(spec, Rng(spec.seed)).tolist()
        hits = 0
        for x, y in pts:
            for cx, cy in BLOB_CENTERS:
                if math.hypot(x - cx, y - cy) <= 2 * BLOB_SIGMA:
                    hits += 1
                    break
        return hits / len(pts)

    clustered = blob_fraction(CLUSTERED)
    uniform = blob_fraction(UNIFORM)
    assert 0.35 <= clustered <= 0.65
    assert uniform < 0.25


# ---------------------------------------------------------------------------
# plane datasets

def test_clean_plane_is_exact():
    data = make_plane_dataset(DataSpec(n=200, seed=1))
    for ex in data:
        assert ex.z == ex.x[0] + ex.x[1]


def test_noise_is_bounded_and_sharing_inputs():
    p = 0.2
    clean = make_plane_dataset(DataSpec(n=100, seed=6))
    noisy = make_plane_dataset(DataSpec(n=100, noise_level=p, seed=6))
    changed = 0
    for c, nz in zip(clean, noisy):
        assert abs(nz.x[0] - c.x[0]) <= p * abs(c.x[0]) + 1e-12
        assert abs(nz.x[1] - c.x[1]) <= p * abs(c.x[1]) + 1e-12
        assert abs(nz.z - c.z) <= p * abs(c.z) + 1e-12
        if nz.x != c.x or nz.z != c.z:
            changed += 1
    assert changed == len(clean)


def test_noise_draws_follow_all_input_draws():
    p = 0.1
    n = 3
    data = make_plane_dataset(DataSpec(n=n, noise_level=p, seed=9))
    ref = RefSplitMix(9)
    inputs = [(1.0 + ref.real() * 10.0, 1.0 + ref.real() * 10.0) for _ in range(n)]
    for (x, y), ex in zip(inputs, data):
        ex_x = x * (1.0 + (2.0 * ref.real() - 1.0) * p)
        ex_y = y * (1.0 + (2.0 * ref.real() - 1.0) * p)
        ex_z = (x + y) * (1.0 + (2.0 * ref.real() - 1.0) * p)
        assert ex.x == (ex_x, ex_y)
        assert ex.z == ex_z


def test_plane_dataset_matches_scalar_rebuild():
    # Clustered sets are large so that the rebuild's math.log, which
    # differs from np.log in the last bit on some inputs, is tested.
    domain = ((-3.0, 2.0), (10.0, 40.0))
    for seed in (0, 3, 2**64 - 1):
        for distribution, n in ((UNIFORM, 300), (CLUSTERED, 3000)):
            for p in (0.0, 0.1):
                spec = DataSpec(
                    n=n, domain=domain, distribution=distribution,
                    noise_level=p, seed=seed,
                )
                expected = plane_dataset(
                    n, seed, p, clustered=distribution == CLUSTERED, domain=domain
                )
                assert [(ex.x, ex.z) for ex in make_plane_dataset(spec)] == expected


def test_same_seed_same_dataset():
    spec = DataSpec(n=50, noise_level=0.3, distribution=CLUSTERED, seed=21)
    assert make_plane_dataset(spec) == make_plane_dataset(spec)


def test_plane_needs_two_inputs():
    # A recipe is checked when it is made, so make_plane_dataset runs every spec.
    with pytest.raises(ValueError, match="^plane data needs exactly 2 inputs, domain has 3$"):
        DataSpec(n=5, domain=((0.0, 1.0),) * 3)


def test_dataset_is_columnar_and_list_like():
    data = make_plane_dataset(DataSpec(n=20, noise_level=0.1, seed=4))
    assert data.X.shape == (20, 2) and data.X.flags.c_contiguous
    assert data.z.shape == (20,)
    assert len(data) == 20
    records = list(data)
    assert [(ex.x, ex.z) for ex in records] == [
        (tuple(x), z) for x, z in zip(data.X.tolist(), data.z.tolist())
    ]
    assert all(type(v) is float for ex in records for v in (*ex.x, ex.z))
    assert Dataset([ex.x for ex in records], [ex.z for ex in records]) == data


def test_only_a_read_only_dataset_keeps_its_degrees():
    data = make_plane_dataset(DataSpec(n=20, noise_level=0.1, seed=4))
    p = Partition(1, 11, 9, TRIANGULAR)
    # Writeable: computed at every call, row by row as Partition.degrees.
    first = data.degrees(p, 1)
    assert np.array_equal(first, p.degrees(data.X[:, 1]))
    assert data.degrees(p, 1) is not first
    # Read-only: computed once per partition value and column, read-only.
    data.X.flags.writeable = False
    kept = data.degrees(p, 1)
    assert data.degrees(Partition(1, 11, 9, TRIANGULAR), 1) is kept
    assert np.array_equal(kept, first) and not kept.flags.writeable
    assert data.degrees(p, 0) is not kept
    assert np.array_equal(data.degrees(p, 0), p.degrees(data.X[:, 0]))


def test_dataset_validates_once_at_construction(tmp_path):
    with pytest.raises(ValueError, match="finite"):
        Dataset([[1.0, 2.0], [3.0, float("nan")]], [3.0, 7.0])
    with pytest.raises(ValueError, match="finite"):
        Dataset([[1.0, 2.0]], [float("inf")])
    with pytest.raises(ValueError, match="shape"):
        Dataset([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValueError, match="shape"):
        Dataset([[1.0, 2.0]], [3.0, 4.0])
    with pytest.raises(ValueError):
        Dataset([(1.0, 2.0), (1.0, 2.0, 3.0)], [3.0, 6.0])
    with pytest.raises(ValueError, match="2-input"):
        write_dataset(tmp_path / "d.csv", Dataset(np.ones((2, 3)), np.ones(2)))


# ---------------------------------------------------------------------------
# spec validation

def test_dataspec_validation():
    with pytest.raises(ValueError, match="example count must be at least 1"):
        DataSpec(n=0)
    for n in (2.5, True, "10"):
        with pytest.raises(ValueError, match="must be an integer"):
            DataSpec(n=n)
    with pytest.raises(ValueError, match="unknown distribution"):
        DataSpec(n=10, distribution="normal")
    with pytest.raises(ValueError, match="noise level must be non-negative"):
        DataSpec(n=10, noise_level=-0.1)
    with pytest.raises(ValueError, match="invalid domain range"):
        DataSpec(n=10, domain=((5.0, 5.0), (0.0, 1.0)))
    # the seed has no lower bound: the generator takes its low 64 bits
    assert DataSpec(n=10, seed=-1).seed == -1


@pytest.mark.parametrize("noise", [math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_dataspec_rejects_non_finite_noise(noise):
    # noise_level < 0 is false for NaN, which used to generate clean data,
    # and 10**400 used to be kept and raise OverflowError in generation.
    with pytest.raises(ValueError, match="noise level must be non-negative and finite"):
        DataSpec(n=10, noise_level=noise)


@pytest.mark.parametrize(
    "axis",
    [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf), (-1e308, 1e308),
     pytest.param((0, 10**400), id="0-10**400")],
)
def test_dataspec_rejects_non_finite_domain(axis):
    with pytest.raises(ValueError, match="invalid domain range"):
        DataSpec(n=10, domain=((0.0, 1.0), axis))


# ---------------------------------------------------------------------------
# file round trips

@pytest.mark.parametrize("X, z", [(np.empty((0, 2)), np.empty(0)), ([], [])])
def test_dataset_refuses_no_examples(X, z):
    # The one emptiness check: the learners and read_dataset rely on it.
    with pytest.raises(ValueError, match="^empty dataset: there are no examples$"):
        Dataset(X, z)


def test_dataset_roundtrip_is_exact(tmp_path):
    data = make_plane_dataset(DataSpec(n=80, noise_level=0.15, seed=13))
    path = tmp_path / "data.csv"
    write_dataset(path, data)
    assert read_dataset(path) == data


@given(st.data())
def test_dataset_file_round_trip_is_bit_exact(tmp_path_factory, draw):
    # Every finite double, subnormals and -0.0 included, survives 17 digits.
    n = draw.draw(st.integers(1, 30), label="n")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    data = Dataset(
        draw.draw(hnp.arrays(np.float64, (n, 2), elements=finite), label="X"),
        draw.draw(hnp.arrays(np.float64, n, elements=finite), label="z"),
    )
    path = tmp_path_factory.mktemp("data") / "d.csv"
    write_dataset(path, data)
    back = read_dataset(path)
    assert back.X.tobytes() == data.X.tobytes()
    assert back.z.tobytes() == data.z.tobytes()


def test_dataset_bytes_deterministic(tmp_path):
    spec = DataSpec(n=40, noise_level=0.1, seed=2)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_dataset(a, make_plane_dataset(spec))
    write_dataset(b, make_plane_dataset(spec))
    assert a.read_bytes() == b.read_bytes()


def test_read_dataset_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected dataset header"):
        read_dataset(bad_header)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text("x,y,z\n1,2\n")
    with pytest.raises(ValueError, match="expected 3 fields"):
        read_dataset(bad_row)

    empty = tmp_path / "e.csv"
    empty.write_text("x,y,z\n")
    with pytest.raises(ValueError, match="no examples"):
        read_dataset(empty)


@pytest.mark.parametrize(
    "text,message",
    [
        ("x,y,z\n1,2,3\n1,abc,3\n", "line 3: could not convert string to float: 'abc'"),
        # the blank line still counts, so the error names the file line
        ("x,y,z\n1,2,3\n\n1,nan,3\n", "line 4: values must be finite, got '1,nan,3'"),
        ("x,y,z\n1,2,-inf\n", "line 2: values must be finite, got '1,2,-inf'"),
    ],
)
def test_read_dataset_names_the_line_of_a_bad_value(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_dataset(path)
    assert str(exc.value) == message
