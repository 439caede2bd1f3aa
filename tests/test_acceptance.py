"""End-to-end acceptance checks for the noise-sensitivity benchmark.

Every test prints one "acceptance NN name: PASS/FAIL" line so a verbose
run reads as a checklist. The sweep checks take their cells from the
sweep presets, and each preset runs once, shared across criteria.

One check is deliberately red: the algorithm-ladder ordering expects the
gradient-tuned model to attenuate noise at least as well as the gaussian
cluster model it starts from. Measured behaviour is the opposite: with
per-example updates at alpha = 0.1 for 50 epochs, each training pass
drags the conclusions toward individual noisy examples, so the tuned
clean/noisy difference grows monotonically with the epoch count and ends
well above its initialization. The test asserts the stated ordering
anyway; loosening it would hide exactly the regression it guards.
"""

import functools

import numpy as np

from fuzzgrid import (
    GAUSSIAN,
    TRIANGULAR,
    Dataset,
    FuzzyModel,
    Partition,
    Rng,
    cluster_learn,
    infer,
    model_error,
    wm_learn,
)
from fuzzgrid.cli import (
    CLUSTER_GAUSS,
    CLUSTER_TRI,
    NEUROFUZZY,
    SIMPLIFIED,
    ExperimentConfig,
    main,
    preset_cells,
    run_cells,
)
from fuzzgrid.learning import _tuning_weights

from oracles import cluster_grid, wm_grid


@functools.cache
def medians_by(field: str, preset: str, algo: str | None = None) -> dict:
    """The medians of the preset's cells (only algo's when given) at seed 0
    over 10 trials, keyed by the ExperimentConfig field the cells vary.
    Each preset is read by one field, so it runs once."""
    cells = preset_cells(preset, ExperimentConfig(SIMPLIFIED), algo)
    return {getattr(cfg, field): medians for cfg, medians in zip(cells, run_cells(cells, 10))}


def check(num: int, name: str, ok: bool, detail: str = "", explain: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    message = f"acceptance {num:02d} {name}: {detail}"
    if explain:
        message += f"\n{explain}"
    assert ok, message


def test_c01_exact_linear_reproduction():
    worst = 0.0
    for n in (3, 5, 7, 9):
        px = Partition(1, 11, n, TRIANGULAR)
        py = Partition(1, 11, n, TRIANGULAR)
        pout = Partition(2, 22, 13, TRIANGULAR)
        conclusions = np.add.outer(px.centers, py.centers)
        err = model_error(FuzzyModel([px, py], pout, conclusions), 50)
        worst = max(worst, err["rmse"], err["max_abs"])
    check(1, "exact-linear-reproduction", worst < 1e-9, f"max error {worst:.3g}")


def test_c02_learner_oracle_equivalence():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(10):
        pts = rng.uniform(0, 10, size=(20, 2))
        data = Dataset(pts, rng.uniform(0, 20, size=20))
        for n in (3, 5):
            px = Partition(0, 10, n, TRIANGULAR)
            py = Partition(0, 10, n, TRIANGULAR)
            pout = Partition(0, 20, 13, TRIANGULAR)
            wm = wm_learn(data, [px, py], pout)
            ref_c, ref_d = wm_grid(data, [px, py], pout)
            ok &= np.array_equal(wm.conclusions, ref_c, equal_nan=True)
            ok &= np.array_equal(wm.degrees, ref_d, equal_nan=True)
            cl = cluster_learn(data, [px, py], pout)
            ok &= np.array_equal(
                cl.conclusions, cluster_grid(data, [px, py], pout), equal_nan=True
            )
    check(2, "learner-oracle-equivalence", ok, "20 datasets x 2 learners, exact")


def test_c03_gradient_matches_finite_differences():
    """The step the neuro-fuzzy learner applies for one example,
    (w @ c - z) * w with w the example's row of _tuning_weights, against
    central differences of (infer - z)^2 / 2 in each conclusion."""
    rng = np.random.default_rng(41)
    h = 1e-3  # loss is quadratic per conclusion, so any h is exact modulo roundoff
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        wf = float(rng.uniform(0.3, 1.0))
        px = Partition(0, 10, n, GAUSSIAN, wf)
        py = Partition(0, 10, n, GAUSSIAN, wf)
        pout = Partition(0, 20, 13, TRIANGULAR)
        conclusions = rng.uniform(0, 20, size=(n, n))
        x = (float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        z = float(rng.uniform(0, 20))
        W, _ = _tuning_weights(Dataset([x], [z]), [px, py], np.arange(n * n))
        analytic = (W[0] @ conclusions.ravel() - z) * W[0]
        fd = []
        for idx in np.ndindex(n, n):
            plus = conclusions.copy()
            plus[idx] += h
            minus = conclusions.copy()
            minus[idx] -= h
            lp = 0.5 * (infer(FuzzyModel([px, py], pout, plus), x) - z) ** 2
            lm = 0.5 * (infer(FuzzyModel([px, py], pout, minus), x) - z) ** 2
            fd.append((lp - lm) / (2 * h))
        rel = np.linalg.norm(np.array(fd) - analytic) / max(
            np.linalg.norm(analytic), 1e-12
        )
        worst = max(worst, rel)
    check(
        3,
        "gradient-finite-difference",
        worst < 1e-6,
        f"worst relative error {worst:.3g} over 100 pairs",
    )


def simplified_partitions() -> dict:
    """partition-sweep's simplified rows, keyed by input sets."""
    return medians_by("input_sets", "partition-sweep", SIMPLIFIED)


def test_c04_complexity_increases_noise_sensitivity():
    rows = simplified_partitions()
    seq = [rows[s]["median_rmse"] for s in (3, 5, 7, 9)]
    ok = seq[0] < seq[-1]
    for a, b in zip(seq, seq[1:]):
        ok &= b >= 0.9 * a
    check(
        4,
        "complexity-sensitivity-trend",
        ok,
        "medians " + ", ".join(f"{v:.6f}" for v in seq),
    )


def test_c05_algorithm_ladder_ordering():
    rows = medians_by("algorithm", "algorithm-ladder")
    meds = {algo: m["median_rmse"] for algo, m in rows.items()}
    s, ct = meds[SIMPLIFIED], meds[CLUSTER_TRI]
    cg, nf = meds[CLUSTER_GAUSS], meds[NEUROFUZZY]
    legs = [nf <= 1.05 * cg, cg <= 1.05 * ct, ct <= 1.05 * s]
    detail = (
        f"medians neurofuzzy={nf:.6f} cluster-gauss={cg:.6f} "
        f"cluster-tri={ct:.6f} simplified={s:.6f}; legs {legs}"
    )
    check(
        5,
        "algorithm-ladder-ordering",
        all(legs),
        detail,
        explain=(
            "The gradient-tuned model starts at the gaussian cluster estimate, "
            "so its clean/noisy difference can only move away from that "
            "baseline; per-example updates chase individual noisy examples "
            "and the divergence grows with every epoch. At alpha=0.1, 50 "
            "epochs the first leg is therefore structurally out of reach for "
            "this update rule, with either initialization."
        ),
    )


def test_c06_learning_rate_effect():
    rows = medians_by("alpha", "alpha-sweep")
    meds = [rows[alpha]["median_rmse"] for alpha in (0.1, 0.8, 0.95)]
    ok = meds[0] < meds[1] < meds[2]
    check(
        6,
        "learning-rate-effect",
        ok,
        "medians " + ", ".join(f"{v:.6f}" for v in meds),
    )


def test_c07_more_data_attenuates_noise():
    rows = medians_by("n_examples", "datasize")
    small, large = rows[100]["median_rmse"], rows[400]["median_rmse"]
    check(7, "data-size-effect", large < small, f"n=400 {large:.6f} < n=100 {small:.6f}")


def test_c08_noise_corrupts_rules():
    rows = simplified_partitions()
    big, small = rows[9]["median_rule_changes"], rows[3]["median_rule_changes"]
    ok = big > 0 and small <= big
    check(8, "rule-corruption", ok, f"median changes 9x9={big}, 3x3={small}")


def test_c09_noise_level_monotonicity():
    rows = medians_by("noise_level", "noise-levels")
    low, high = rows[0.10], rows[0.30]
    ok = high["median_rmse"] > low["median_rmse"]
    check(
        9,
        "noise-level-monotonicity",
        ok,
        f"30% {high['median_rmse']:.6f} > 10% {low['median_rmse']:.6f}",
    )


def test_c10_full_sweep_determinism(tmp_path):
    paths = [tmp_path / "ladder_a.csv", tmp_path / "ladder_b.csv"]
    for path in paths:
        code = main(
            [
                "sweep",
                "algorithm-ladder",
                "--seed",
                "0",
                "--trials",
                "10",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    same = paths[0].read_bytes() == paths[1].read_bytes()
    anchor = Rng(0).next_u64s(1)[0] == 0xE220A8397B1DCDAF
    check(
        10,
        "determinism",
        same and anchor,
        f"byte-identical={same}, generator anchor={anchor}",
    )


def test_c11_partition_of_unity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (3, 5, 7, 9, 13):
        p = Partition(1, 11, n, TRIANGULAR)
        xs = rng.uniform(1, 11, size=10000)
        sums = np.array([p.degrees(float(x)).sum() for x in xs])
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    check(11, "partition-of-unity", worst <= 1e-12, f"max deviation {worst:.3g}")
