"""Command-line benchmark harness.

Subcommands cover the full loop: gen writes datasets, train fits a model
file, diff compares a clean/noisy model pair (CSV report plus an ASCII
heatmap), eval scores a model against the analytic plane, and sweep runs
the preset experiment matrices and emits a summary CSV of per-cell
medians.

Data goes to files or standard output; everything diagnostic goes to the
error stream, so output is safe to pipe. All randomness flows from the
--seed flag; a sweep cell at trial t uses seed XOR t.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .datagen import (
    DEFAULT_DOMAIN,
    DISTRIBUTIONS,
    UNIFORM,
    DataSpec,
    make_plane_dataset,
    read_dataset,
    write_dataset,
)
from .evaluation import (
    MAX_RESOLUTION,
    DiffReport,
    difference_surface,
    model_error,
    write_diff_report,
)
from .inference import FuzzyModel, check_model_size, load_model, save_model
from .learning import (
    INIT_CLUSTER,
    INITS,
    NeuroFuzzyConfig,
    cluster_learn,
    neurofuzzy_learn,
    wm_learn,
)
from .membership import DEFAULT_WIDTH_FACTOR, GAUSSIAN, TRIANGULAR, Partition
from .membership import _check_choice, _check_count

SIMPLIFIED = "simplified"
CLUSTER_TRI = "cluster-tri"
CLUSTER_GAUSS = "cluster-gauss"
NEUROFUZZY = "neurofuzzy"

# Which membership kind each algorithm runs on, in ladder order.
ALGO_KIND = {
    SIMPLIFIED: TRIANGULAR,
    CLUSTER_TRI: TRIANGULAR,
    CLUSTER_GAUSS: GAUSSIAN,
    NEUROFUZZY: GAUSSIAN,
}
ALGORITHMS = tuple(ALGO_KIND)

# The experiment matrix of each sweep preset: in row order, the
# ExperimentConfig fields each of its cells sets on the base config.
PRESETS = {
    "partition-sweep": [
        {"algorithm": a, "input_sets": s, "noise_level": 0.10}
        for a in ALGORITHMS
        for s in (3, 5, 7, 9)
    ],
    "noise-levels": [
        {"algorithm": CLUSTER_TRI, "input_sets": 9, "noise_level": p} for p in (0.10, 0.30)
    ],
    "datasize": [
        {"algorithm": SIMPLIFIED, "input_sets": 9, "noise_level": 0.10, "n_examples": n}
        for n in (100, 400)
    ],
    # K and the initialization are held fixed across the rate sweep and
    # recorded in the output so runs stay comparable.
    "alpha-sweep": [
        {"algorithm": NEUROFUZZY, "input_sets": 9, "noise_level": 0.10,
         "alpha": a, "epochs": 50, "init": INIT_CLUSTER}
        for a in (0.1, 0.8, 0.95)
    ],
    "algorithm-ladder": [
        {"algorithm": a, "input_sets": 9, "noise_level": 0.10} for a in ALGORITHMS
    ],
}

HEAT_RAMP = " .:-=+*#%@"
GAP_CHAR = "?"
# The heatmap's characters by bucket index; a gap is the index after the ramp.
_HEAT_BYTES = np.frombuffer((HEAT_RAMP + GAP_CHAR).encode("ascii"), dtype=np.uint8)

# Each sweep metric: its value for one trial, read from the pair's
# DiffReport. A trial whose surface is all gap has no rmse or max_abs.
TRIAL_METRICS = {
    "rmse": lambda r: r.rmse,
    "max_abs": lambda r: r.max_abs,
    "rule_changes": lambda r: sum(r.rule_changes[k] for k in ("changed", "only_a", "only_b")),
    "gap_fraction": lambda r: r.gap_fraction,
}

# Each summary column that shows a cell: the ExperimentConfig field it
# shows. The neuro-fuzzy tuning fields stay blank on other algorithms' rows.
CELL_COLUMNS = {
    "algorithm": "algorithm", "input_sets": "input_sets", "output_sets": "output_sets",
    "noise": "noise_level", "n": "n_examples", "alpha": "alpha", "epochs": "epochs",
    "init": "init", "distribution": "distribution",
}
_TUNING_FIELDS = {field.name for field in fields(NeuroFuzzyConfig)}

SUMMARY_COLUMNS = (
    "preset", *CELL_COLUMNS, "trials", *(f"median_{name}" for name in TRIAL_METRICS),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark cell: algorithm, structure, data recipe, tuning.

    Making one, by the constructor or by dataclasses.replace, raises
    ValueError unless the cell can run. The tuning fields are checked for
    every algorithm, though only neurofuzzy reads them.
    """

    algorithm: str
    input_sets: int = 9
    output_sets: int = 13
    noise_level: float = 0.10
    n_examples: int = 100
    distribution: str = UNIFORM
    seed: int = 0
    alpha: float = NeuroFuzzyConfig.alpha
    epochs: int = NeuroFuzzyConfig.epochs
    init: str = NeuroFuzzyConfig.init
    resolution: int = 50
    width_factor: float = DEFAULT_WIDTH_FACTOR
    lo: float = DEFAULT_DOMAIN[0][0]
    hi: float = DEFAULT_DOMAIN[0][1]
    out_lo: float = 2.0
    out_hi: float = 22.0

    def __post_init__(self):
        # The partitions go first, so a bad structure is reported before a
        # bad tuning field, as train reported it when only it checked them.
        _check_choice("algorithm", self.algorithm, ALGORITHMS)
        build_partitions(self)
        _check_count("resolution", self.resolution, 2, MAX_RESOLUTION)
        self.tuning()
        _data_spec(self, self.seed, self.noise_level)

    @property
    def domain(self) -> tuple:
        """The square input domain: (lo, hi) on both axes."""
        return ((self.lo, self.hi),) * 2

    def tuning(self) -> NeuroFuzzyConfig:
        """The neuro-fuzzy learner's settings; checked for every algorithm."""
        return NeuroFuzzyConfig(**{field: getattr(self, field) for field in _TUNING_FIELDS})


def build_partitions(cfg: ExperimentConfig):
    """The input partitions (a tuple) and the output partition of cfg's model.

    A grid or output partition over MAX_MODEL_CELLS, which load_model
    would refuse, raises ValueError before any partition is built. The
    partitions come from _partitions, so every model of one structure
    shares the same Partition objects.
    """
    return _partitions(
        ALGO_KIND[cfg.algorithm], cfg.input_sets, cfg.width_factor, cfg.domain,
        cfg.output_sets, cfg.out_lo, cfg.out_hi,
    )


# Keyed by the fields that fix the partitions, never by identity. Eight
# entries hold partition-sweep's eight structures (two kinds, four counts).
# Typed, so a bool width factor or output bound, equal to 1, never takes a
# number's entry and skips Partition's type check.
@functools.lru_cache(maxsize=8, typed=True)
def _partitions(kind, input_sets, width_factor, domain, output_sets, out_lo, out_hi):
    check_model_size([input_sets] * len(domain), output_sets)
    inputs = tuple(Partition(lo, hi, input_sets, kind, width_factor) for lo, hi in domain)
    return inputs, Partition(out_lo, out_hi, output_sets, TRIANGULAR)


def train_model(cfg: ExperimentConfig, data) -> FuzzyModel:
    inputs, output = build_partitions(cfg)
    if cfg.algorithm == NEUROFUZZY:
        return neurofuzzy_learn(data, inputs, output, cfg.tuning())
    # cfg checked its algorithm when it was made: here it is simplified,
    # cluster-tri or cluster-gauss
    learn = wm_learn if cfg.algorithm == SIMPLIFIED else cluster_learn
    return learn(data, inputs, output)


def run_pair(cfg: ExperimentConfig, seed: int):
    """Train the clean/noisy model pair for one trial seed and diff them.

    Both datasets share the seed, so they share the same underlying
    clean inputs; only the stored coordinates of the noisy one are
    perturbed. The datasets come from _dataset, which keeps the last four
    built, so consecutive calls at one seed and data recipe (n, domain,
    distribution, noise level) build them once. The cells of a preset
    share the recipe, apart from datasize's n and noise-levels' noise
    level. The datasets are read-only and never leave this function.
    """
    clean = train_model(cfg, _dataset(_data_spec(cfg, seed, 0.0)))
    noisy = train_model(cfg, _dataset(_data_spec(cfg, seed, cfg.noise_level)))
    return clean, noisy, difference_surface(clean, noisy, cfg.resolution)


# Two entries would hold one seed's clean and noisy datasets (noise-levels'
# cells also share the clean one); four keep the last trial's pair alive
# while the next trial builds its own, so a trial's degree matrices are
# freed below the next one's. With two, at n = 1000, freeing them let
# glibc hand the heap top back to the system, and each trial page-faulted
# it in again (about 290 page faults per algorithm-ladder trial). Keyed by
# the frozen spec, never by identity.
@functools.lru_cache(maxsize=4)
def _dataset(spec: DataSpec):
    """make_plane_dataset(spec), with X and z read-only: every run_pair
    call at this spec trains on the same arrays, so a learner that wrote
    to them would change the next cell's data. Writing raises instead.
    Read-only, the dataset also keeps the degree matrices its learners
    read (Dataset.degrees), so the cells of a trial share them."""
    data = make_plane_dataset(spec)
    data.X.flags.writeable = False
    data.z.flags.writeable = False
    return data


def _data_spec(cfg: ExperimentConfig, seed: int, noise_level: float) -> DataSpec:
    """The dataset recipe of cfg at one seed and noise level."""
    return DataSpec(
        n=cfg.n_examples,
        domain=cfg.domain,
        distribution=cfg.distribution,
        noise_level=noise_level,
        seed=seed,
    )


def run_cell(cfg: ExperimentConfig, trials: int) -> dict:
    """Medians of the diff metrics over trials seeds (cfg.seed XOR t),
    run_pair called in seed order; see run_cells."""
    return run_cells([cfg], trials)[0]


def run_cells(cells, trials: int) -> list:
    """run_cell's medians for each cell, in cell order.

    The loop is trial-major: trial t runs run_pair(cfg, cfg.seed XOR t)
    for every cell before trial t + 1 starts, so cells that share a seed
    and data recipe reuse that seed's datasets (see run_pair). Each cell
    and trial keeps one record, its TRIAL_METRICS values, never the models
    or reports. Each median_<name> skips the trials whose <name> is None,
    and is None when every trial's is. Raises ValueError when trials is
    below 1.
    """
    trials = _check_count("trials", trials, 1)
    records = [[] for _ in cells]
    for t in range(trials):
        for cfg, cell_records in zip(cells, records):
            _, _, report = run_pair(cfg, cfg.seed ^ t)
            cell_records.append({name: metric(report) for name, metric in TRIAL_METRICS.items()})
    return [
        {f"median_{name}": _median([r[name] for r in cell_records]) for name in TRIAL_METRICS}
        for cell_records in records
    ]


def _median(values):
    """The median of the values that are not None, or None if none is."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def preset_cells(preset: str, base: ExperimentConfig, algo: str | None = None):
    """The experiment matrix for a preset, in fixed row order, keeping
    only algo's cells when algo is given."""
    _check_choice("preset", preset, PRESETS)
    return [
        replace(base, **cell)
        for cell in PRESETS[preset]
        if algo is None or cell["algorithm"] == algo
    ]


def _fmt(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value:.17g}"


def _print_metrics(rmse, max_abs, gap_fraction) -> None:
    print(f"rmse={_fmt(rmse) or 'NaN'}")
    print(f"max_abs={_fmt(max_abs) or 'NaN'}")
    print(f"gap_fraction={_fmt(gap_fraction)}")


def summary_rows(preset: str, cells, trials: int) -> list:
    rows = [",".join(SUMMARY_COLUMNS)]
    for cfg, medians in zip(cells, run_cells(cells, trials)):
        tuned = cfg.algorithm == NEUROFUZZY
        shown = [
            getattr(cfg, field) if tuned or field not in _TUNING_FIELDS else None
            for field in CELL_COLUMNS.values()
        ]
        rows.append(",".join(map(_fmt, [preset, *shown, trials, *medians.values()])))
    return rows


def render_heatmap(report: DiffReport) -> str:
    """|diff| as quantile-bucketed ASCII, one line per grid row.

    The top line is the highest y value; x grows to the right. Gap
    points render as '?' so holes stay distinguishable from small
    differences.
    """
    grid = np.abs(report.diff_grid)
    gaps = np.isnan(grid)
    finite = grid[~gaps]
    if finite.size:
        edges = np.quantile(finite, np.arange(1, 10) / 10.0)
    else:
        edges = np.zeros(9)
    buckets = np.searchsorted(edges, grid, side="left")
    buckets[gaps] = len(HEAT_RAMP)
    # grid rows index x, so its transpose, bottom row first, is the picture;
    # one more column ends each line
    picture = np.full((grid.shape[1], grid.shape[0] + 1), ord("\n"), dtype=np.uint8)
    picture[:, :-1] = _HEAT_BYTES[buckets.T[::-1]]
    return picture.tobytes()[:-1].decode("ascii")


# ---------------------------------------------------------------------------
# experiment parameters: flags and config keys

# Every parameter a subcommand can take, by config key and flag name (the
# key with dashes, --out-sets for out_sets): the ExperimentConfig field it
# sets, its type or tuple of choices, and its help text. trials counts sweep
# seeds, so it sets no field.
_PARAMS = {
    "n": ("n_examples", int, "examples per dataset"),
    "noise": ("noise_level", float, "noise level, e.g. 0.10"),
    "distribution": ("distribution", DISTRIBUTIONS, "input sampling"),
    "seed": ("seed", int, "base seed"),
    "lo": ("lo", float, "input range low end"),
    "hi": ("hi", float, "input range high end"),
    "sets": ("input_sets", int, "input sets per variable"),
    "out_sets": ("output_sets", int, "output sets"),
    "width_factor": ("width_factor", float, "gaussian sigma as a multiple of set spacing"),
    "alpha": ("alpha", float, "neurofuzzy learning rate"),
    "epochs": ("epochs", int, "neurofuzzy learning epochs"),
    "init": ("init", INITS, "neurofuzzy conclusion initialization"),
    "out_lo": ("out_lo", float, "output range low end"),
    "out_hi": ("out_hi", float, "output range high end"),
    "resolution": ("resolution", int, "grid points per axis"),
    "trials": (None, int, "seeds per cell"),
}

# The parameters that set an ExperimentConfig field.
_FIELDS = {name: field for name, (field, _, _) in _PARAMS.items() if field is not None}

# A parameter's value when neither its flag nor the config file sets it.
_DEFAULTS = {name: getattr(ExperimentConfig, field) for name, field in _FIELDS.items()}
_DEFAULTS["trials"] = 10


def load_config(path) -> dict:
    """key=value lines, # comments, blank lines ignored.

    Keys are parameter names, values are parsed by their type. An unknown
    key, a value that does not parse or a value outside its choices raises
    ValueError naming the line; a key given twice names both lines.
    """
    values, key_lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {line_no}: expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _PARAMS:
                raise ValueError(f"config line {line_no}: unknown key {key!r}")
            if key in key_lines:
                raise ValueError(f"config lines {key_lines[key]} and {line_no}: {key} given twice")
            key_lines[key] = line_no
            kind = _PARAMS[key][1]
            choices = kind if isinstance(kind, tuple) else None
            try:
                if choices and value not in choices:
                    raise ValueError
                values[key] = value if choices else kind(value)
            except ValueError:
                expected = f"one of {', '.join(choices)}" if choices else kind.__name__
                raise ValueError(
                    f"config line {line_no}: {key} must be {expected}, got {value!r}"
                ) from None
    return values


def _resolve(args) -> dict:
    """Every parameter's value: for the ones the subcommand takes, its flag
    if given, else its config-file line, else its default."""
    values = dict(args.defaults)
    config = load_config(args.config) if args.config else {}
    for name in args.params:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
        elif name in config:
            values[name] = config[name]
    return values


def _experiment(algorithm: str, values: dict) -> ExperimentConfig:
    """The experiment cell that resolved parameter values describe."""
    return ExperimentConfig(algorithm, **{field: values[name] for name, field in _FIELDS.items()})


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def _read(read, path, what: str):
    """read(path), its OSError or ValueError raised as ValueError
    "cannot <what> <path>: <reason>", so the message names the file."""
    try:
        return read(path)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot {what} {path}: {e}") from None


def cmd_gen(args) -> int:
    cfg = _experiment(SIMPLIFIED, _resolve(args))
    spec = _data_spec(cfg, cfg.seed, cfg.noise_level)
    write_dataset(args.out, make_plane_dataset(spec))
    _note(
        f"wrote {spec.n} examples to {args.out} "
        f"(seed={spec.seed}, noise={spec.noise_level}, {spec.distribution})"
    )
    return 0


def cmd_train(args) -> int:
    # the cell is checked before the dataset is read
    cfg = _experiment(args.algo, _resolve(args))
    model = train_model(cfg, _read(read_dataset, args.dataset, "read dataset"))
    save_model(model, args.model)
    _note(
        f"trained {cfg.algorithm} {cfg.input_sets}x{cfg.input_sets} model: "
        f"{model.rule_count()} rules, {model.empty_count()} empty cells -> {args.model}"
    )
    return 0


def cmd_diff(args) -> int:
    resolution = _resolve(args)["resolution"]
    clean = _read(load_model, args.clean_model, "load model")
    noisy = _read(load_model, args.noisy_model, "load model")
    report = difference_surface(clean, noisy, resolution)
    if args.out:
        meta = {
            "clean_model": args.clean_model,
            "noisy_model": args.noisy_model,
            "inputs": " | ".join(repr(p) for p in clean.input_partitions),
            "output": repr(clean.output_partition),
            "resolution": resolution,
        }
        write_diff_report(report, args.out, meta)
        _note(f"wrote report to {args.out}")
    print(render_heatmap(report))
    _print_metrics(report.rmse, report.max_abs, report.gap_fraction)
    print(
        "rules: unchanged={unchanged} changed={changed} "
        "only_clean={only_a} only_noisy={only_b}".format(**report.rule_changes)
    )
    return 0


def cmd_eval(args) -> int:
    resolution = _resolve(args)["resolution"]
    _print_metrics(**model_error(_read(load_model, args.model, "load model"), resolution))
    return 0


def cmd_sweep(args) -> int:
    values = _resolve(args)
    trials = _check_count("trials", values["trials"], 1)
    # A parameter whose field any of the preset's cells sets belongs to the
    # preset. Its flag, which the cells would ignore, is an error. Its
    # config-file value is ignored, so one file can serve gen and every
    # preset, and the base cell, which is checked too, takes the default.
    # A flag the subcommand lacks reads as None.
    for name, field in _FIELDS.items():
        runs = dict.fromkeys(str(cell[field]) for cell in PRESETS[args.preset] if field in cell)
        if runs and getattr(args, name, None) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to the {args.preset} "
                             f"preset, which runs {name} = {' and '.join(runs)}")
        if runs:
            values[name] = args.defaults[name]
    if args.algo is not None and args.preset != "partition-sweep":
        raise ValueError(f"--algo applies to the partition-sweep preset only, not {args.preset}")
    cells = preset_cells(args.preset, _experiment(SIMPLIFIED, values), args.algo)
    _note(f"running {args.preset}: {len(cells)} cells x {trials} trials")
    rows = summary_rows(args.preset, cells, trials)
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _note(f"wrote summary to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_params(parser, *names, **defaults) -> None:
    """Give parser the flags of the parameters names, in order.

    defaults override _DEFAULTS for this subcommand; --help shows them.
    """
    defaults = {**_DEFAULTS, **defaults}
    for name in names:
        _, kind, text = _PARAMS[name]
        if defaults[name] is not None:
            text = f"{text} (default {defaults[name]})"
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        parser.add_argument("--" + name.replace("_", "-"), dest=name, help=text, **typed)
    parser.set_defaults(params=names, defaults=defaults)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fuzzgrid argument parser, built on the first call and reused.

    It names the subcommand only; main looks up its cmd_ function when it
    runs, so rebinding cli.cmd_* after the parser is built still takes.
    """
    parser = argparse.ArgumentParser(
        prog="fuzzgrid",
        description="Fuzzy rule-grid learning and noise-sensitivity benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value file supplying defaults")
        return p

    p = command("gen", "generate a plane dataset CSV")
    # a generated dataset is clean unless --noise says otherwise
    _add_params(p, "n", "noise", "distribution", "seed", "lo", "hi", noise=0.0)
    p.add_argument("--out", required=True, help="output CSV path")

    p = command("train", "fit a model file from a dataset")
    p.add_argument("dataset", help="input dataset CSV")
    p.add_argument("model", help="output model path")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    _add_params(
        p, "sets", "out_sets", "width_factor", "alpha", "epochs", "init",
        "lo", "hi", "out_lo", "out_hi",
    )

    p = command("diff", "compare a clean/noisy model pair")
    p.add_argument("clean_model")
    p.add_argument("noisy_model")
    p.add_argument("--out", help="write the diff report CSV here")
    _add_params(p, "resolution")

    p = command("eval", "score a model against the analytic plane")
    p.add_argument("model")
    _add_params(p, "resolution")

    p = command("sweep", "run a preset experiment matrix")
    p.add_argument("preset", choices=tuple(PRESETS))
    p.add_argument("--algo", choices=ALGORITHMS, help="restrict partition-sweep to one algorithm")
    _add_params(p, "trials", "seed", "n", "distribution", "resolution", "width_factor")
    p.add_argument("--out", help="summary CSV path (default: standard output)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except (OSError, ValueError) as e:
        _note(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
