import argparse
import subprocess
import sys

import pytest

from fuzzgrid import DataSpec, load_model, make_plane_dataset, read_dataset
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


def test_train_neurofuzzy_uses_gaussian(capsys, tmp_path):
    data = gen(capsys, tmp_path, "d.csv", "--n", "60")
    model_path = train(
        capsys, tmp_path, data, "nf.txt", "neurofuzzy", "--epochs", "3"
    )
    model = load_model(model_path)
    assert model.input_partitions[0].kind == "gaussian"


def test_train_rejects_wrong_membership_kind(capsys, tmp_path):
    data = gen(capsys, tmp_path, "d.csv", "--n", "20")
    out_path = tmp_path / "m.txt"
    code, _, err = run(
        capsys, "train", str(data), str(out_path), "--algo", "simplified",
        "--mf", "gaussian",
    )
    assert code == 1
    assert "simplified requires triangular membership functions" in err
    code, _, err = run(
        capsys, "train", str(data), str(out_path), "--algo", "neurofuzzy",
        "--mf", "triangular",
    )
    assert code == 1
    assert "neurofuzzy requires gaussian membership functions" in err


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


def test_diff_missing_model(capsys, tmp_path):
    code, _, err = run(capsys, "diff", str(tmp_path / "no.model"), str(tmp_path / "no.model"))
    assert code == 1
    assert "cannot load model" in err


def test_eval_scores_against_plane(capsys, tmp_path):
    data = gen(capsys, tmp_path, "d.csv", "--n", "400")
    model = train(capsys, tmp_path, data, "m.model", "cluster-gauss")
    code, out, _ = run(capsys, "eval", str(model))
    assert code == 0
    assert parse_metric(out, "rmse") < 0.5
    assert parse_metric(out, "gap_fraction") == 0.0


# ---------------------------------------------------------------------------
# sweep

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
    assert lines[0] == SUMMARY_COLUMNS
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
    assert lines[0] == SUMMARY_COLUMNS
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
    config.write_text("n=20\nsets=5\nepochs=3\ntrials=2\nresolution=9\nmf=gaussian\n")
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
        ("--mf", "mf", None, ("triangular", "gaussian"), False),
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
    "mf": (None, "triangular", "gaussian"),
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
        domain=((0.0, 10.0), (0.0, 10.0)),
        out_range=(0.0, 20.0),
    )
    values = resolve(
        *ARGV["sweep"], "--n", "30", "--distribution", "clustered", "--seed", "4",
        "--resolution", "20",
    )
    assert cli._experiment("simplified", values) == ExperimentConfig(
        "simplified", n_examples=30, distribution="clustered", seed=4, resolution=20
    )


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
