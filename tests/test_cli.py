import argparse
import dataclasses
import json
import operator
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fuzzgrid
from fuzzgrid import GAUSSIAN, TRIANGULAR, DataSpec, Partition, load_model
from fuzzgrid import make_plane_dataset, read_dataset
from fuzzgrid import cli
from fuzzgrid.cli import SUMMARY_COLUMNS, ExperimentConfig, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(capsys, tmp_path, name, *extra):
    path = tmp_path / name
    code, _, err = run(capsys, "gen", "--out", str(path), *extra)
    assert code == 0, err
    return path


def train(capsys, tmp_path, dataset, name, algo, *extra):
    path = tmp_path / name
    code, _, err = run(
        capsys, "train", str(dataset), str(path), "--algo", algo, *extra
    )
    assert code == 0, err
    return path


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_deterministic_csv(capsys, tmp_path):
    a = gen(capsys, tmp_path, "a.csv", "--n", "30", "--noise", "0.1", "--seed", "4")
    b = gen(capsys, tmp_path, "b.csv", "--n", "30", "--noise", "0.1", "--seed", "4")
    assert a.read_bytes() == b.read_bytes()
    expected = make_plane_dataset(DataSpec(n=30, noise_level=0.1, seed=4))
    assert read_dataset(a) == expected


def test_gen_rejects_negative_noise(capsys, tmp_path):
    code, _, err = run(
        capsys, "gen", "--out", str(tmp_path / "x.csv"), "--noise", "-0.1"
    )
    assert code == 1
    assert "noise level must be non-negative" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_gen_rejects_non_finite_noise(capsys, tmp_path, noise):
    # --noise nan used to write a file byte-identical to the clean dataset.
    code, _, err = run(
        capsys, "gen", "--out", str(tmp_path / "a.csv"), "--n", "5", "--noise", noise
    )
    assert code == 1
    assert f"noise level must be non-negative and finite, got {noise}" in err
    assert not (tmp_path / "a.csv").exists()


def test_gen_reports_to_stderr_only(capsys, tmp_path):
    path = tmp_path / "d.csv"
    code, out, err = run(capsys, "gen", "--out", str(path), "--n", "5")
    assert code == 0
    assert out == ""
    assert "wrote 5 examples" in err


# ---------------------------------------------------------------------------
# train

def test_train_writes_loadable_model(capsys, tmp_path):
    data = gen(capsys, tmp_path, "d.csv", "--n", "100")
    model_path = train(capsys, tmp_path, data, "m.txt", "simplified", "--sets", "5")
    model = load_model(model_path)
    assert model.shape == (5, 5)
    assert model.input_partitions[0].kind == "triangular"
    assert model.output_partition.n == 13


def test_train_writes_the_width_factor_it_was_given(capsys, tmp_path):
    # Triangular partitions at width factors 0.5 and 0.3 are equal, yet each
    # model file records the width factor its own run was given.
    data = gen(capsys, tmp_path, "d.csv", "--n", "100")
    for wf in (0.5, 0.3, 0.5):
        path = train(capsys, tmp_path, data, f"m{wf}.txt", "simplified", "--width-factor", str(wf))
        assert [p.width_factor for p in load_model(path).input_partitions] == [wf, wf]


def test_train_neurofuzzy_uses_gaussian(capsys, tmp_path):
    data = gen(capsys, tmp_path, "d.csv", "--n", "60")
    model_path = train(
        capsys, tmp_path, data, "nf.txt", "neurofuzzy", "--epochs", "3"
    )
    model = load_model(model_path)
    assert model.input_partitions[0].kind == "gaussian"


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--algo", "cluster-gauss", "--width-factor", "nan"), "invalid width factor: nan"),
        (("--algo", "simplified", "--lo", "nan"), "invalid range (nan, 11.0)"),
        (("--algo", "simplified", "--out-hi", "inf"), "invalid range"),
        (("--algo", "simplified", "--lo=-1e308", "--hi", "1e308"), "invalid range"),
        (("--algo", "cluster-gauss", "--width-factor", "5e-324"), "invalid set width"),
        (("--algo", "neurofuzzy", "--width-factor", "1e-300"), "invalid set width"),
    ],
)
def test_train_rejects_non_finite_partitions(capsys, tmp_path, flags, message):
    # Each of these used to exit 0: a NaN width factor, or one so small that
    # the set width underflows or ((hi - lo) / width)**2 overflows, gave 0
    # rules and 81 empty cells, and a NaN lo wrote a model that eval could
    # not load.
    data = gen(capsys, tmp_path, "b.csv", "--n", "100")
    out_path = tmp_path / "m.model"
    code, _, err = run(capsys, "train", str(data), str(out_path), *flags)
    assert code == 1
    assert message in err
    assert not out_path.exists()


def test_train_checks_tuning_fields_for_every_learner(capsys, tmp_path):
    # The learner ignores them, but a cell with a bad one is not a cell:
    # --algo simplified --epochs -1 used to exit 0.
    data = gen(capsys, tmp_path, "d.csv", "--n", "20")
    out_path = tmp_path / "bad.model"
    code, _, err = run(
        capsys, "train", str(data), str(out_path), "--algo", "simplified", "--epochs", "-1"
    )
    assert (code, err) == (1, "error: epochs must be at least 0\n")
    assert not out_path.exists()


def test_train_rejects_alpha_above_two(capsys, tmp_path):
    # At this rate and width the sweep used to overflow: the model came
    # out with 0 rules and 81 empty cells, and train exited 0.
    data = gen(capsys, tmp_path, "a.csv", "--n", "100")
    out_path = tmp_path / "m.model"
    code, _, err = run(
        capsys, "train", str(data), str(out_path), "--algo", "neurofuzzy",
        "--alpha", "50", "--width-factor", "0.05",
    )
    assert code == 1
    assert "alpha" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("neurofuzzy", "--init", "zero", "--alpha", "1", "--epochs", "20"),
         "a tuned conclusion is not finite"),
        (("neurofuzzy", "--alpha", "1", "--epochs", "20"), "must be finite"),
        (("cluster-gauss",), "must be finite"),
    ],
)
def test_train_refuses_targets_that_overflow(capsys, tmp_path, flags, message):
    # Finite targets of +-1.7e308 overflowed the neuro-fuzzy updates to NaN:
    # train used to warn, write a model of 0 rules and 81 empty cells and
    # exit 0. The cluster sums, also the default neuro-fuzzy init, overflow
    # to inf and used to warn before the model refused it. A warning would
    # be an error here, as it is in the CI README loop.
    data = tmp_path / "big.csv"
    xy = np.random.default_rng(0).uniform(1.0, 11.0, (50, 2)).tolist()
    rows = [f"{x!r},{y!r},{(-1) ** k * 1.7e308}" for k, (x, y) in enumerate(xy)]
    data.write_text("x,y,z\n" + "\n".join(rows) + "\n")
    out_path = tmp_path / "m.model"
    code, _, err = run(capsys, "train", str(data), str(out_path), "--algo", *flags)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "flags", [("--sets", "1000000000000"), ("--sets", "4000"), ("--out-sets", "20000000")]
)
def test_train_refuses_models_over_the_cell_limit(capsys, tmp_path, monkeypatch, flags):
    # --sets 10**12 used to die in numpy's _ArrayMemoryError with a
    # traceback, and --sets 4000 wrote a 16M-cell model that eval refused.
    data = gen(capsys, tmp_path, "d.csv", "--n", "20")
    built = []
    monkeypatch.setattr(cli, "Partition", lambda *args: built.append(args))
    out_path = tmp_path / "m.model"
    code, _, err = run(capsys, "train", str(data), str(out_path), "--algo", "simplified", *flags)
    assert code == 1
    assert "exceeds the limit of 10000000 cells" in err
    assert not out_path.exists()
    assert built == []


@pytest.mark.parametrize("algo", ["cluster-gauss", "neurofuzzy"])
def test_train_gaussian_takes_inputs_far_outside_the_range(capsys, tmp_path, algo):
    # Rows at 1e200 and 1.5e308 overflowed d * d and d in Partition.degrees,
    # a RuntimeWarning that pytest turns into an error. Their degrees are 0.
    data = gen(capsys, tmp_path, "d.csv", "--n", "50")
    far = tmp_path / "far.csv"
    far.write_text(data.read_text() + "1e200,5,10\n5,-1.5e308,10\n")
    near_model = train(capsys, tmp_path, data, "near.model", algo)
    far_model = train(capsys, tmp_path, far, "far.model", algo)
    if algo == "cluster-gauss":
        assert far_model.read_bytes() == near_model.read_bytes()


def test_train_gaussian_ignores_a_row_one_ulp_outside_the_range(capsys, tmp_path):
    # At width factor 1e-20 the row one ulp below lo = 1 lies 1e4 widths out,
    # so its degrees are 0 and it adds nothing; a gaussian clip bound that
    # rounded onto lo gave it degree 1 and moved the rule's conclusion.
    near = tmp_path / "near.csv"
    near.write_text("x,y,z\n1,3.5,4.5\n")
    edge = tmp_path / "edge.csv"
    edge.write_text(near.read_text() + "0.9999999999999999,3.5,6\n")
    wf = ("--width-factor", "1e-20")
    near_model = train(capsys, tmp_path, near, "near.model", "cluster-gauss", *wf)
    edge_model = train(capsys, tmp_path, edge, "edge.model", "cluster-gauss", *wf)
    assert edge_model.read_bytes() == near_model.read_bytes()


@pytest.mark.parametrize("algo", ["simplified", "cluster-tri"])
def test_train_triangular_takes_inputs_far_outside_the_range(capsys, tmp_path, algo):
    # With 30 sets |x - c| / width overflowed for a row at 1.5e308, a
    # RuntimeWarning that pytest turns into an error. Its degrees are 0.
    data = gen(capsys, tmp_path, "d.csv", "--n", "50")
    far = tmp_path / "far.csv"
    far.write_text(data.read_text() + "1.5e308,5,10\n")
    near_model = train(capsys, tmp_path, data, "near.model", algo, "--sets", "30")
    far_model = train(capsys, tmp_path, far, "far.model", algo, "--sets", "30")
    if algo == "cluster-tri":
        assert far_model.read_bytes() == near_model.read_bytes()


def test_train_missing_dataset(capsys, tmp_path):
    code, _, err = run(
        capsys, "train", str(tmp_path / "nope.csv"), str(tmp_path / "m.txt"),
        "--algo", "simplified",
    )
    assert code == 1
    assert "cannot read dataset" in err


# ---------------------------------------------------------------------------
# diff / eval

def make_pair(capsys, tmp_path, algo="cluster-tri"):
    clean_csv = gen(capsys, tmp_path, "clean.csv", "--n", "100", "--seed", "1")
    noisy_csv = gen(
        capsys, tmp_path, "noisy.csv", "--n", "100", "--seed", "1",
        "--noise", "0.1",
    )
    clean = train(capsys, tmp_path, clean_csv, "clean.model", algo)
    noisy = train(capsys, tmp_path, noisy_csv, "noisy.model", algo)
    return clean, noisy


def parse_metric(out, name):
    for line in out.splitlines():
        if line.startswith(f"{name}="):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"{name} not in output:\n{out}")


def test_diff_self_is_blank(capsys, tmp_path):
    # gaussian membership covers the whole grid, so no '?' gap marks
    clean, _ = make_pair(capsys, tmp_path, algo="cluster-gauss")
    code, out, _ = run(capsys, "diff", str(clean), str(clean), "--resolution", "10")
    assert code == 0
    lines = out.splitlines()
    heat = lines[:10]
    assert all(line == " " * 10 for line in heat)
    assert parse_metric(out, "rmse") == 0.0
    assert parse_metric(out, "gap_fraction") == 0.0
    assert "changed=0" in out


def test_diff_pair_reports_structure(capsys, tmp_path):
    clean, noisy = make_pair(capsys, tmp_path)
    code, out, _ = run(capsys, "diff", str(clean), str(noisy), "--resolution", "12")
    assert code == 0
    heat = out.splitlines()[:12]
    assert all(len(line) == 12 for line in heat)
    assert any(c != " " for line in heat for c in line)
    assert parse_metric(out, "rmse") > 0.0
    assert "rules: unchanged=" in out


def test_diff_writes_report_csv(capsys, tmp_path):
    clean, noisy = make_pair(capsys, tmp_path)
    report = tmp_path / "report.csv"
    code, _, err = run(
        capsys, "diff", str(clean), str(noisy), "--resolution", "8",
        "--out", str(report),
    )
    assert code == 0
    lines = report.read_text().splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    keys = {line[2:].split("=", 1)[0] for line in meta}
    assert {"clean_model", "noisy_model", "inputs", "output", "resolution"} <= keys
    assert "x,y,diff" in lines
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 64


def test_diff_rejects_mismatched_domains(capsys, tmp_path):
    data_a = gen(capsys, tmp_path, "a.csv", "--n", "50")
    data_b = gen(capsys, tmp_path, "b.csv", "--n", "50", "--lo", "0", "--hi", "10")
    model_a = train(capsys, tmp_path, data_a, "a.model", "cluster-tri")
    model_b = train(
        capsys, tmp_path, data_b, "b.model", "cluster-tri",
        "--lo", "0", "--hi", "10",
    )
    code, _, err = run(capsys, "diff", str(model_a), str(model_b))
    assert code == 1
    assert "input domains differ" in err


@pytest.mark.parametrize("flags", [("--out-sets", "5"), ("--out-lo", "0", "--out-hi", "100")])
def test_diff_refuses_models_of_different_output_partitions(capsys, tmp_path, flags):
    data = gen(capsys, tmp_path, "a.csv", "--n", "50")
    model_a = train(capsys, tmp_path, data, "a.model", "cluster-tri")
    model_b = train(capsys, tmp_path, data, "b.model", "cluster-tri", *flags)
    report = tmp_path / "report.csv"
    code, out, err = run(capsys, "diff", str(model_a), str(model_b), "--out", str(report))
    assert code == 1
    assert out == ""
    assert err.startswith("error: output partitions differ: Partition(2.0, 22.0, 13, ")
    assert not report.exists()


def test_diff_missing_model(capsys, tmp_path):
    code, _, err = run(capsys, "diff", str(tmp_path / "no.model"), str(tmp_path / "no.model"))
    assert code == 1
    assert "cannot load model" in err


@pytest.mark.parametrize("broken", ["clean", "noisy"])
def test_diff_names_the_model_it_cannot_load(capsys, tmp_path, broken):
    # The message used to read "cannot load model: line ...", naming neither.
    models = dict(zip(("clean", "noisy"), make_pair(capsys, tmp_path)))
    bad = models[broken]
    lines = bad.read_text().splitlines()
    bad.write_text("\n".join(lines + lines[-1:]) + "\n")
    report = tmp_path / "report.csv"
    code, out, err = run(
        capsys, "diff", str(models["clean"]), str(models["noisy"]), "--out", str(report)
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot load model {bad}: line {len(lines) + 1}: cell (")
    assert err.endswith(") appears twice\n")
    assert not report.exists()


def test_eval_names_the_model_it_cannot_load(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("# fuzzgrid model\ninput triangular 1 11 3.5 0.5\n")
    code, out, err = run(capsys, "eval", str(bad))
    assert (code, out) == (1, "")
    assert err == (
        f"error: cannot load model {bad}: line 2: invalid literal for int() with base 10: '3.5'\n"
    )


def test_eval_scores_against_plane(capsys, tmp_path):
    data = gen(capsys, tmp_path, "d.csv", "--n", "400")
    model = train(capsys, tmp_path, data, "m.model", "cluster-gauss")
    code, out, _ = run(capsys, "eval", str(model))
    assert code == 0
    assert parse_metric(out, "rmse") < 0.5
    assert parse_metric(out, "gap_fraction") == 0.0


@pytest.mark.parametrize("command", ["diff", "eval", "sweep"])
def test_resolution_over_the_limit_exits_1(capsys, tmp_path, command):
    # 10**5 points per axis asked numpy for 10**10-point grids.
    clean, noisy = make_pair(capsys, tmp_path)
    report = tmp_path / "r.csv"
    argv = {
        "diff": ["diff", str(clean), str(noisy), "--out", str(report)],
        "eval": ["eval", str(clean)],
        "sweep": ["sweep", "noise-levels", "--trials", "1", "--out", str(report)],
    }[command]
    code, out, err = run(capsys, *argv, "--resolution", "100000")
    assert code == 1
    assert "resolution must be at most 4096, got 100000" in err
    assert out == ""
    assert not report.exists()


# ---------------------------------------------------------------------------
# trials: run_pair, run_cell, run_cells

def ladder_cells(seed=0):
    return cli.preset_cells("algorithm-ladder", ExperimentConfig(cli.SIMPLIFIED, seed=seed))


def test_run_pair_builds_a_seeds_datasets_once(monkeypatch):
    built = []
    make = cli.make_plane_dataset
    monkeypatch.setattr(cli, "make_plane_dataset", lambda spec: built.append(spec) or make(spec))
    cli._dataset.cache_clear()
    cells = ladder_cells()
    for cfg in cells:
        cli.run_pair(cfg, 5)
    assert [(spec.seed, spec.noise_level) for spec in built] == [(5, 0.0), (5, 0.1)]
    # A new seed builds again, and so does a new n at that seed.
    cli.run_pair(cells[0], 6)
    cli.run_pair(dataclasses.replace(cells[0], n_examples=50), 6)
    assert [(spec.seed, spec.n) for spec in built[2:]] == [(6, 100)] * 2 + [(6, 50)] * 2
    # The shared arrays are read-only, as every dataset's are.
    shared = cli._dataset(built[-1])
    assert len(built) == 6
    assert not shared.X.flags.writeable and not shared.z.flags.writeable
    assert not make(built[-1]).X.flags.writeable


def test_a_seeds_learners_share_one_degree_matrix_per_partition_and_input(monkeypatch):
    # The ladder's four learners train on one seed's clean and noisy
    # datasets: each dataset computes each input's full-length degrees once
    # per membership kind, 2 * 2 * 2 calls where each learner used to make
    # its own (20). The calls on fewer rows are grid axes, output sets and
    # the clamped rows out of range.
    cells = ladder_cells()
    calls = []
    degrees = Partition.degrees
    monkeypatch.setattr(
        Partition, "degrees", lambda p, x: calls.append((p.kind, np.shape(x))) or degrees(p, x)
    )
    cli._dataset.cache_clear()
    for cfg in cells:
        cli.run_pair(cfg, 3)
    full = [kind for kind, shape in calls if shape == (cells[0].n_examples,)]
    assert sorted(full) == [GAUSSIAN] * 4 + [TRIANGULAR] * 4


def test_run_cells_runs_every_cell_at_a_seed_before_the_next(monkeypatch):
    cells = ladder_cells(seed=6)
    expected = [cli.run_cell(cfg, 2) for cfg in cells]
    visits = []
    run_pair = cli.run_pair
    monkeypatch.setattr(
        cli, "run_pair", lambda cfg, seed: visits.append((cfg.algorithm, seed)) or run_pair(cfg, seed)
    )
    assert cli.run_cells(cells, 2) == expected
    assert visits == [(cfg.algorithm, 6 ^ t) for t in range(2) for cfg in cells]


@pytest.mark.parametrize("trials", [0, -3])
def test_run_cells_rejects_trial_counts_below_one(monkeypatch, trials):
    monkeypatch.setattr(cli, "run_pair", lambda *args: pytest.fail("a pair was trained"))
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        cli.run_cell(ExperimentConfig(cli.SIMPLIFIED), trials)
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        cli.run_cells(ladder_cells(), trials)


def test_run_cells_medians_skip_all_gap_trials_for_the_surface_metrics_only(monkeypatch):
    def report(rmse, max_abs, changed, gap_fraction):
        rule_changes = {"unchanged": 70, "changed": changed, "only_a": 1, "only_b": 2}
        return SimpleNamespace(
            rmse=rmse, max_abs=max_abs, gap_fraction=gap_fraction, rule_changes=rule_changes
        )

    # The second trial's surface is all gap: it has no rmse or max_abs.
    reports = [report(1.0, 2.0, 3, 0.0), report(None, None, 9, 1.0), report(4.0, 8.0, 0, 0.25)]
    seeds = []

    def run_pair(cfg, seed):
        seeds.append(seed)
        return None, None, reports[len(seeds) - 1]

    monkeypatch.setattr(cli, "run_pair", run_pair)
    assert cli.run_cell(ExperimentConfig(cli.SIMPLIFIED, seed=4), 3) == {
        "median_rmse": 2.5,  # of 1.0 and 4.0
        "median_max_abs": 5.0,  # of 2.0 and 8.0
        "median_rule_changes": 6,  # of 6, 12 and 3: changed + only_a + only_b
        "median_gap_fraction": 0.25,  # of 0.0, 1.0 and 0.25
    }
    assert seeds == [4, 5, 6]
    # With every trial all gap, the surface medians are None.
    reports = [report(None, None, 0, 1.0)] * 2
    seeds = []
    assert cli.run_cell(ExperimentConfig(cli.SIMPLIFIED), 2) == {
        "median_rmse": None, "median_max_abs": None,
        "median_rule_changes": 3, "median_gap_fraction": 1.0,
    }


def test_summary_columns_are_pinned():
    assert SUMMARY_COLUMNS == (
        "preset", "algorithm", "input_sets", "output_sets", "noise", "n", "alpha", "epochs",
        "init", "distribution", "trials", "median_rmse", "median_max_abs",
        "median_rule_changes", "median_gap_fraction",
    )


def test_build_partitions_shares_one_structure_by_value(monkeypatch):
    built = []
    make = cli.Partition
    monkeypatch.setattr(cli, "Partition", lambda *args: built.append(args) or make(*args))
    cells = ladder_cells()
    # Each cell, the base one too, builds two inputs and an output to check
    # itself and keeps them: build_partitions builds none.
    assert len(built) == 15
    first = [cli.build_partitions(cfg) for cfg in cells]
    assert [cli.build_partitions(cfg) for cfg in cells] == first and len(built) == 15
    assert all(map(operator.is_, map(cli.build_partitions, cells), first))
    inputs, output = first[0]
    assert isinstance(inputs, tuple) and inputs[0] == inputs[1]
    # simplified and cluster-tri have equal triangular sets, cluster-gauss
    # and neurofuzzy equal gaussian ones: equal across cells, not the same.
    assert first[0] == first[1] and first[2] == first[3] and first[0] != first[2]
    assert first[0][1] is not first[1][1] and first[2][0][0] is not first[3][0][0]
    # A seed, alpha or resolution does not fix the partitions; a width
    # factor and an output range do.
    same = dataclasses.replace(cells[3], seed=9, alpha=0.5, resolution=7)
    assert cli.build_partitions(same) == first[3]
    assert cli.build_partitions(dataclasses.replace(cells[3], width_factor=0.3)) != first[3]
    assert cli.build_partitions(dataclasses.replace(cells[3], out_hi=30.0)) != first[3]
    assert len(built) == 24
    # A cell's two trainings and its pair share the cell's objects.
    clean, noisy, _ = cli.run_pair(cells[2], 0)
    assert clean.input_partitions == noisy.input_partitions == list(first[2][0])
    assert all(map(operator.is_, clean.input_partitions, first[2][0]))
    assert all(map(operator.is_, noisy.input_partitions, first[2][0]))
    assert clean.output_partition is noisy.output_partition is first[2][1]
    # A cell over the cell limit raises before it builds a partition.
    with pytest.raises(ValueError, match="exceeds the limit"):
        dataclasses.replace(cells[0], input_sets=4000)
    assert len(built) == 24
    # The kept objects are no fields: ==, hash and repr ignore them.
    twin = dataclasses.replace(cells[0])
    assert twin == cells[0] and hash(twin) == hash(cells[0]) and repr(twin) == repr(cells[0])
    assert cli.build_partitions(twin) is not first[0]
    assert twin.tuning() is twin.tuning() == cells[3].tuning()


# Each field value that makes a cell unable to run, with what it raises.
BAD_CELLS = [
    ({"algorithm": "bogus"}, "unknown algorithm 'bogus' (valid: simplified, cluster-tri, "),
    ({"resolution": 1}, "resolution must be at least 2"),
    ({"resolution": 4097}, "resolution must be at most 4096, got 4097"),
    ({"resolution": 2.5}, "resolution must be an integer, got 2.5"),
    ({"alpha": 3}, "alpha must be in [0, 2], got 3"),
    ({"epochs": -1}, "epochs must be at least 0"),
    ({"init": "random"}, "unknown init mode 'random'"),
    ({"n_examples": 0}, "example count must be at least 1"),
    ({"noise_level": -0.1}, "noise level must be non-negative and finite, got -0.1"),
    ({"noise_level": float("nan")}, "noise level must be non-negative and finite, got nan"),
    ({"distribution": "x"}, "unknown distribution 'x'"),
    ({"lo": 11.0}, "invalid range (11.0, 11.0)"),
    ({"input_sets": 1}, "set count must be at least 2"),
    ({"input_sets": "3"}, "set count must be an integer, got '3'"),
    ({"output_sets": 1}, "set count must be at least 2"),
    ({"width_factor": 0}, "invalid width factor: 0"),
    ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
    ({"seed": None}, "seed must be an integer, got None"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"alpha": "0.5"}, "alpha must be a real number, got '0.5'"),
    ({"alpha": None}, "alpha must be a real number, got None"),
    ({"alpha": True}, "alpha must be a real number, got True"),
    ({"noise_level": "0.1"}, "noise level must be a real number, got '0.1'"),
    ({"noise_level": True}, "noise level must be a real number, got True"),
    ({"width_factor": "0.5"}, "width factor must be a real number, got '0.5'"),
    ({"width_factor": True}, "width factor must be a real number, got True"),
    ({"lo": "1"}, "range bound must be a real number, got '1'"),
    ({"lo": True}, "range bound must be a real number, got True"),
    ({"out_lo": True}, "range bound must be a real number, got True"),
    ({"out_hi": "22"}, "range bound must be a real number, got '22'"),
]


@pytest.mark.parametrize("bad,message", BAD_CELLS, ids=[repr(bad) for bad, _ in BAD_CELLS])
def test_a_cell_that_cannot_run_is_refused_when_it_is_made(bad, message):
    # simplified never reads the tuning fields, yet they are checked too.
    fields = {"algorithm": cli.SIMPLIFIED, **bad}
    with pytest.raises(ValueError) as made:
        ExperimentConfig(**fields)
    assert message in str(made.value)
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(ExperimentConfig(cli.SIMPLIFIED), **bad)
    assert str(replaced.value) == str(made.value)


@pytest.mark.parametrize("field", ["width_factor"])
def test_a_bool_never_takes_the_cached_partitions_of_its_number(field):
    # True equals 1.0 and hashes alike, so a cell of True must be refused
    # even after a cell of 1.0 built and kept its partitions.
    ExperimentConfig(cli.SIMPLIFIED, **{field: 1.0})
    with pytest.raises(ValueError, match="must be a real number, got True$"):
        ExperimentConfig(cli.SIMPLIFIED, **{field: True})


# ---------------------------------------------------------------------------
# sweep

def test_sweep_refuses_models_over_the_cell_limit(capsys, tmp_path, monkeypatch):
    # A cell whose model grid is over the limit fails before it builds a partition.
    out_path = tmp_path / "s.csv"
    built = []
    make = cli.Partition
    monkeypatch.setattr(cli, "Partition", lambda *args: built.append(args) or make(*args))
    monkeypatch.setitem(
        cli.PRESETS, "noise-levels", [{"algorithm": "cluster-tri", "input_sets": 4000}]
    )
    code, out, err = run(capsys, "sweep", "noise-levels", "--trials", "1", "--out", str(out_path))
    assert code == 1
    assert "a model of 4000 x 4000 input sets and 13 output sets exceeds the limit" in err
    assert not out_path.exists()
    # Only the sweep's base cell, which is checked too, built its partitions.
    assert [args[2] for args in built] == [9, 9, 13]


def test_sweep_refuses_a_bad_cell_before_any_trial(capsys, monkeypatch):
    # The gaussian cells' width underflows; the triangular cells before them
    # would train fine, but no pair is trained at all.
    pairs = []
    run_pair = cli.run_pair
    monkeypatch.setattr(cli, "run_pair", lambda *args: pairs.append(args) or run_pair(*args))
    code, out, err = run(capsys, "sweep", "algorithm-ladder", "--width-factor", "1e-320")
    assert code == 1
    assert out == ""
    assert "error: invalid set width" in err
    assert pairs == []


def test_sweep_runs_neurofuzzy_cells_with_every_cell_empty(capsys):
    # At this width no example reaches a set, so both models of every pair
    # are empty: the neuro-fuzzy cells report all gaps, as cluster-gauss does.
    code, out, err = run(
        capsys, "sweep", "partition-sweep", "--algo", "neurofuzzy",
        "--width-factor", "0.001", "--trials", "1",
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[2] for row in rows] == ["3", "5", "7", "9"]
    assert all(row[11:] == ["", "", "0", "1"] for row in rows)


def test_sweep_rejects_unknown_preset(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "algorithm-ladder" in err


def test_sweep_alpha_rows(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "sweep", "alpha-sweep", "--trials", "2", "--n", "60",
        "--out", str(out_csv),
    )
    assert code == 0, err
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(lines) == 4
    alphas = []
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[0] == "alpha-sweep"
        assert cols[1] == "neurofuzzy"
        assert cols[2] == "9"
        alphas.append(float(cols[6]))
        assert cols[7] == "50"
        assert cols[8] == "cluster"
        assert cols[10] == "2"
        assert float(cols[11]) > 0.0
    assert alphas == [0.1, 0.8, 0.95]


def test_sweep_partition_rows_blank_tuning_fields(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "sweep", "partition-sweep", "--algo", "simplified",
        "--trials", "1", "--out", str(out_csv),
    )
    assert code == 0, err
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 5
    sets = []
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[1] == "simplified"
        sets.append(int(cols[2]))
        assert cols[6] == "" and cols[7] == "" and cols[8] == ""
    assert sets == [3, 5, 7, 9]


def test_sweep_stdout_and_determinism(capsys, tmp_path):
    args = ("sweep", "datasize", "--trials", "1")
    code, out_a, _ = run(capsys, *args)
    assert code == 0
    code, out_b, _ = run(capsys, *args)
    assert code == 0
    assert out_a == out_b
    lines = out_a.splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert [line.split(",")[5] for line in lines[1:]] == ["100", "400"]


@pytest.mark.parametrize("source", ["flag 0", "flag -2", "config 0"])
def test_sweep_rejects_trial_counts_below_one(capsys, tmp_path, source):
    kind, count = source.split()
    config = tmp_path / "t.conf"
    config.write_text(f"trials={count}\n")
    extra = ("--trials", count) if kind == "flag" else ("--config", str(config))
    code, out, err = run(capsys, "sweep", "datasize", *extra)
    assert code == 1
    assert out == ""
    assert err == "error: trials must be at least 1\n"


def test_sweep_refuses_a_resolution_before_any_trial(capsys, tmp_path, monkeypatch):
    calls = []
    run_pair = cli.run_pair
    monkeypatch.setattr(cli, "run_pair", lambda *args: calls.append(args) or run_pair(*args))
    out_path = tmp_path / "bad.csv"
    argv = ("sweep", "algorithm-ladder", "--resolution", "1", "--trials", "1")
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out, err) == (1, "", "error: resolution must be at least 2\n")
    assert calls == []
    assert not out_path.exists()


def test_sweep_datasize_rejects_n_flag_and_ignores_config_n(capsys, tmp_path):
    code, out, err = run(capsys, "sweep", "datasize", "--trials", "1", "--n", "0")
    assert code == 1
    assert out == ""
    assert err == "error: --n does not apply to the datasize preset, which runs n = 100 and 400\n"

    config = tmp_path / "shared.conf"
    config.write_text("n=7\n")
    code, out, err = run(capsys, "sweep", "datasize", "--trials", "1", "--config", str(config))
    assert code == 0, err
    assert [line.split(",")[5] for line in out.splitlines()[1:]] == ["100", "400"]


def test_sweep_refuses_a_flag_whose_field_the_preset_sets(capsys, tmp_path, monkeypatch):
    # A preset whose cells set the width factor, as a width sweep would.
    cells = [{"algorithm": cli.CLUSTER_GAUSS, "width_factor": w} for w in (0.25, 1.0, 0.25)]
    monkeypatch.setitem(cli.PRESETS, "noise-levels", cells)
    widths = []
    run_pair = cli.run_pair
    monkeypatch.setattr(
        cli, "run_pair", lambda cfg, seed: widths.append(cfg.width_factor) or run_pair(cfg, seed)
    )
    argv = ("sweep", "noise-levels", "--trials", "1", "--n", "20")
    code, out, err = run(capsys, *argv, "--width-factor", "0.5")
    assert (code, out) == (1, "")
    assert err == (
        "error: --width-factor does not apply to the noise-levels preset, "
        "which runs width_factor = 0.25 and 1.0\n"
    )
    assert widths == []
    # A config-file width factor is ignored, even one no cell could take.
    for width in ("0.75", "0"):
        config = tmp_path / "shared.conf"
        config.write_text(f"width_factor={width}\n")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 0, err
        assert widths == [0.25, 1.0, 0.25]
        widths.clear()


GOLDEN = Path(__file__).parent / "golden"


def _golden_cell_matches(got: str, want: str) -> bool:
    """Text and integer cells match exactly, float cells to relative 1e-9:
    np.exp may differ in the last bit between CPUs."""
    try:
        int(want)
        return got == want
    except ValueError:
        pass
    try:
        return float(got) == pytest.approx(float(want), rel=1e-9, abs=0.0)
    except ValueError:
        return got == want


@pytest.mark.parametrize(
    "preset,trials",
    [
        ("partition-sweep", 1),
        ("noise-levels", 2),
        ("datasize", 2),
        ("alpha-sweep", 2),
        ("algorithm-ladder", 2),
    ],
)
def test_sweep_reproduces_golden_summary(capsys, preset, trials):
    code, out, err = run(capsys, "sweep", preset, "--seed", "3", "--trials", str(trials))
    assert code == 0, err
    want = (GOLDEN / f"{preset}.csv").read_text().splitlines()
    got = out.splitlines()
    assert len(got) == len(want)
    for row, (got_row, want_row) in enumerate(zip(got, want)):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert len(got_cells) == len(want_cells), f"row {row}"
        for column, (g, w) in enumerate(zip(got_cells, want_cells)):
            assert _golden_cell_matches(g, w), f"row {row} column {column}: {g!r} != {w!r}"


@pytest.mark.parametrize("preset", ["algorithm-ladder", "datasize"])
def test_sweep_rejects_algo_outside_partition_sweep(capsys, preset):
    code, out, err = run(capsys, "sweep", preset, "--trials", "1", "--algo", "simplified")
    assert code == 1
    assert out == ""
    assert err == f"error: --algo applies to the partition-sweep preset only, not {preset}\n"


# ---------------------------------------------------------------------------
# config file resolution

def test_config_supplies_defaults_and_flags_win(capsys, tmp_path):
    config = tmp_path / "bench.conf"
    config.write_text("# benchmark defaults\nn=7\nnoise=0.2\nseed=5\n")
    path = gen(capsys, tmp_path, "c.csv", "--config", str(config))
    expected = make_plane_dataset(DataSpec(n=7, noise_level=0.2, seed=5))
    assert read_dataset(path) == expected

    path = gen(capsys, tmp_path, "c2.csv", "--config", str(config), "--n", "3")
    assert len(read_dataset(path)) == 3


def test_config_rejects_malformed_lines(capsys, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("just some words\n")
    code, _, err = run(
        capsys, "gen", "--out", str(tmp_path / "x.csv"), "--config", str(config)
    )
    assert code == 1
    assert "expected key=value" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("n=7\nepoch=10\n", "config line 2: unknown key 'epoch'"),
        ("# size\nn=2.5\n", "config line 2: n must be int, got '2.5'"),
        ("noise=lots\n", "config line 1: noise must be float, got 'lots'"),
        (
            "distribution=gaussian\n",
            "config line 1: distribution must be one of uniform, clustered, got 'gaussian'",
        ),
        ("init=random\n", "config line 1: init must be one of zero, cluster, got 'random'"),
        ("mf=gaussian\n", "config line 1: unknown key 'mf'"),
        ("n=50\n# more\nseed=2\nn=70\n", "config lines 1 and 4: n given twice"),
    ],
)
def test_config_rejects_unknown_keys_and_bad_values(capsys, tmp_path, text, message):
    config = tmp_path / "bad.conf"
    config.write_text(text)
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "gen", "--out", str(out), "--config", str(config))
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_config_keys_of_other_subcommands_are_ignored(capsys, tmp_path):
    config = tmp_path / "shared.conf"
    config.write_text("n=20\nsets=5\nepochs=3\ntrials=2\nresolution=9\n")
    path = gen(capsys, tmp_path, "d.csv", "--config", str(config))
    assert read_dataset(path) == make_plane_dataset(DataSpec(n=20))
    model = train(capsys, tmp_path, path, "m.model", "neurofuzzy", "--config", str(config))
    assert load_model(model).shape == (5, 5)


# ---------------------------------------------------------------------------
# the option set of each subcommand and the parameter table behind it

ALGOS = ("simplified", "cluster-tri", "cluster-gauss", "neurofuzzy")
DISTS = ("uniform", "clustered")
PRESETS = ("partition-sweep", "noise-levels", "datasize", "alpha-sweep", "algorithm-ladder")
CONFIG = ("--config", "config", None, None, False)

# (flag or positional name, dest, type, choices, required), in parser order
OPTIONS = {
    "gen": [
        CONFIG,
        ("--n", "n", int, None, False),
        ("--noise", "noise", float, None, False),
        ("--distribution", "distribution", None, DISTS, False),
        ("--seed", "seed", int, None, False),
        ("--lo", "lo", float, None, False),
        ("--hi", "hi", float, None, False),
        ("--out", "out", None, None, True),
    ],
    "train": [
        CONFIG,
        ("dataset", "dataset", None, None, True),
        ("model", "model", None, None, True),
        ("--algo", "algo", None, ALGOS, True),
        ("--sets", "sets", int, None, False),
        ("--out-sets", "out_sets", int, None, False),
        ("--width-factor", "width_factor", float, None, False),
        ("--alpha", "alpha", float, None, False),
        ("--epochs", "epochs", int, None, False),
        ("--init", "init", None, ("zero", "cluster"), False),
        ("--lo", "lo", float, None, False),
        ("--hi", "hi", float, None, False),
        ("--out-lo", "out_lo", float, None, False),
        ("--out-hi", "out_hi", float, None, False),
    ],
    "diff": [
        CONFIG,
        ("clean_model", "clean_model", None, None, True),
        ("noisy_model", "noisy_model", None, None, True),
        ("--out", "out", None, None, False),
        ("--resolution", "resolution", int, None, False),
    ],
    "eval": [
        CONFIG,
        ("model", "model", None, None, True),
        ("--resolution", "resolution", int, None, False),
    ],
    "sweep": [
        CONFIG,
        ("preset", "preset", None, PRESETS, True),
        ("--algo", "algo", None, ALGOS, False),
        ("--trials", "trials", int, None, False),
        ("--seed", "seed", int, None, False),
        ("--n", "n", int, None, False),
        ("--distribution", "distribution", None, DISTS, False),
        ("--resolution", "resolution", int, None, False),
        ("--width-factor", "width_factor", float, None, False),
        ("--out", "out", None, None, False),
    ],
}


def subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_option_sets_are_pinned(command):
    actions = [a for a in subparsers()[command]._actions if a.dest != "help"]
    got = [
        (
            (a.option_strings or [a.dest])[0],
            a.dest,
            a.type,
            tuple(a.choices) if a.choices is not None else None,
            a.required,
        )
        for a in actions
    ]
    assert got == OPTIONS[command]
    assert all(len(a.option_strings) <= 1 for a in actions)  # no aliases


def test_only_the_known_subcommands_exist():
    assert sorted(subparsers()) == sorted(OPTIONS)


# Minimal argv that parses for each subcommand; nothing is read or run.
ARGV = {
    "gen": ["gen", "--out", "d.csv"],
    "train": ["train", "d.csv", "m.model", "--algo", "neurofuzzy"],
    "diff": ["diff", "a.model", "b.model"],
    "eval": ["eval", "m.model"],
    "sweep": ["sweep", "datasize"],
}

# Each table parameter: its default, a config-file value and a flag value.
PRECEDENCE = {
    "n": (100, 7, 3),
    "noise": (0.1, 0.2, 0.3),
    "distribution": ("uniform", "clustered", "uniform"),
    "seed": (0, 5, 6),
    "lo": (1.0, 0.5, 2.0),
    "hi": (11.0, 10.0, 12.0),
    "sets": (9, 5, 7),
    "out_sets": (13, 9, 11),
    "width_factor": (0.5, 0.25, 0.75),
    "alpha": (0.1, 0.5, 0.8),
    "epochs": (50, 4, 6),
    "init": ("cluster", "zero", "cluster"),
    "out_lo": (2.0, 0.0, 1.0),
    "out_hi": (22.0, 20.0, 21.0),
    "resolution": (50, 20, 30),
    "trials": (10, 2, 3),
}

TAKES = [
    (command, dest)
    for command, options in OPTIONS.items()
    for _, dest, *_ in options
    if dest in PRECEDENCE
]


def resolve(*argv):
    return cli._resolve(cli.build_parser().parse_args(list(argv)))


def test_every_table_parameter_is_taken_somewhere():
    assert {dest for _, dest in TAKES} == set(PRECEDENCE)


@pytest.mark.parametrize("command,name", TAKES)
def test_flag_beats_config_beats_default(tmp_path, command, name):
    default, config_value, flag_value = PRECEDENCE[name]
    if (command, name) == ("gen", "noise"):
        default = 0.0  # gen writes clean data unless asked for noise
    config = tmp_path / "p.conf"
    config.write_text(f"# one parameter\n{name}={config_value}\n")
    flag = "--" + name.replace("_", "-")
    argv = ARGV[command]
    assert resolve(*argv)[name] == default
    assert resolve(*argv, "--config", str(config))[name] == config_value
    assert resolve(*argv, "--config", str(config), flag, str(flag_value))[name] == flag_value
    assert resolve(*argv, flag, str(flag_value))[name] == flag_value


def test_defaults_are_the_experiment_config_defaults():
    assert cli._experiment("neurofuzzy", resolve(*ARGV["train"])) == ExperimentConfig(
        "neurofuzzy"
    )
    assert cli._experiment("simplified", resolve(*ARGV["sweep"])) == ExperimentConfig(
        "simplified"
    )


def test_every_parameter_but_trials_sets_a_field_of_its_own():
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    named = [field for name, (field, _, _) in cli._PARAMS.items() if name != "trials"]
    assert cli._PARAMS["trials"][0] is None
    assert set(named) <= fields
    assert len(set(named)) == len(named)


def test_parameter_defaults_are_their_fields_defaults():
    fields = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
    assert set(cli._DEFAULTS) == set(cli._PARAMS)
    for name, (field, _, _) in cli._PARAMS.items():
        if field is not None:
            assert cli._DEFAULTS[name] == fields[field], name
    assert cli._DEFAULTS["trials"] == 10


def test_resolved_values_set_their_experiment_fields():
    values = resolve(
        *ARGV["train"], "--sets", "5", "--out-sets", "9", "--width-factor", "0.25",
        "--alpha", "0.5", "--epochs", "4", "--init", "zero", "--lo", "0", "--hi", "10",
        "--out-lo", "0", "--out-hi", "20",
    )
    assert cli._experiment("neurofuzzy", values) == ExperimentConfig(
        "neurofuzzy",
        input_sets=5,
        output_sets=9,
        width_factor=0.25,
        alpha=0.5,
        epochs=4,
        init="zero",
        lo=0.0,
        hi=10.0,
        out_lo=0.0,
        out_hi=20.0,
    )
    values = resolve(
        *ARGV["sweep"], "--n", "30", "--distribution", "clustered", "--seed", "4",
        "--resolution", "20",
    )
    assert cli._experiment("simplified", values) == ExperimentConfig(
        "simplified", n_examples=30, distribution="clustered", seed=4, resolution=20
    )


def test_main_reuses_one_parser_and_looks_up_the_command_when_it_runs(
    capsys, tmp_path, monkeypatch
):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(parser, *args, **kwargs):
        parsers.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    ran = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: ran.append(args.model) or 0)
    assert main(["eval", "a.model"]) == 0
    assert main(["eval", "b.model"]) == 0
    assert ran == ["a.model", "b.model"]
    assert len(parsers) == 2
    assert parsers[0] is parsers[1] is cli.build_parser()


# ---------------------------------------------------------------------------
# module entry point

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzgrid.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout


# OpenBLAS's thread-count variables, in its order of precedence.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# A fresh interpreter that imports the modules argv[1] names (comma-separated,
# in order) and prints its native thread count, whether that loaded numpy,
# whether its environment changed and whether numpy uses OpenBLAS.
STARTUP_PROBE = """
import importlib, json, os, sys
before = dict(os.environ)
for name in sys.argv[1].split(","):
    importlib.import_module(name)
threads = len(os.listdir("/proc/self/task"))
loaded = "numpy" in sys.modules
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
print(json.dumps({
    "threads": threads,
    "numpy_loaded": loaded,
    "unchanged": dict(os.environ) == before,
    "openblas": "openblas" in blas.lower(),
}))
"""


def startup_probe(imports, **variables):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(fuzzgrid.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, imports],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.parametrize(
    "imports, variables, threads",
    [
        # The command line loads numpy and no count is set: one OpenBLAS
        # thread, and the variable is gone again afterwards.
        ("fuzzgrid.cli", {}, 1),
        # A count the user set wins, and is left as it was.
        ("fuzzgrid.cli", {"OPENBLAS_NUM_THREADS": "2"}, None),
        ("fuzzgrid.cli", {"OMP_NUM_THREADS": "2"}, None),
        # numpy loaded first: the command line changes nothing.
        ("numpy,fuzzgrid.cli", {}, None),
        # The library, without the command line, loads numpy at its default.
        ("fuzzgrid.membership", {}, None),
    ],
)
def test_the_command_line_loads_numpy_with_one_openblas_thread_unless_a_count_is_set(
    imports, variables, threads
):
    got = startup_probe(imports, **variables)
    assert got["unchanged"]
    if got["openblas"]:
        # None: as many threads as numpy alone starts under the same variables.
        expected = startup_probe("numpy", **variables)["threads"] if threads is None else threads
        assert got["threads"] == expected


def test_importing_the_package_loads_no_numpy():
    got = startup_probe("fuzzgrid")
    assert not got["numpy_loaded"]
    assert got["unchanged"]


def test_the_package_names_resolve_to_their_submodules():
    from fuzzgrid import datagen, learning, membership

    assert fuzzgrid.make_plane_dataset is datagen.make_plane_dataset
    assert fuzzgrid.learning is learning
    assert {"Partition", "activations", "__version__"} <= set(dir(fuzzgrid))
    for name in fuzzgrid.__all__:
        assert getattr(fuzzgrid, name) is not None
    with pytest.raises(AttributeError, match="no attribute 'membership_kind'"):
        fuzzgrid.membership_kind
    assert fuzzgrid.Partition is membership.Partition
