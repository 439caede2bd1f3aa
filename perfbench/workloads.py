"""The benchmark's workloads: what one op is, its output summary and checks.

An op is one homogeneous unit of user work through fuzzgrid's public API.
Op k of a run uses seed ``base_seed ^ k``, the schedule ``run_cell`` uses
for trial t. Each workload turns an op's raw output into a small summary
(compared with the recorded reference when one exists for the op seed)
and, on sampled ops, cross-checks learned models against the independent
reference learners in ``tests/oracles.py``.

Functions are always looked up on the module object at call time
(``cli.run_pair``, never a name imported from it), so the tracer's
wrappers are the ones called when it is installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

REL_TOL = 1e-9

NOISE = 0.10  # noise level of the noisy dataset in cli-files

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# What the oracles need from an example: input vector and output.
OracleExample = namedtuple("OracleExample", "x z")


def op_seed(base_seed: int, k: int) -> int:
    """Seed of op k: the XOR schedule of ``cli.run_cell``."""
    return base_seed ^ k


def close(a, b) -> bool:
    """Integers, strings and None exactly; floats to a relative tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    return a == b


def grids_close(actual, expected) -> bool:
    """Same NaN pattern (empty cells) and every filled value within rel."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    nan_a, nan_e = np.isnan(actual), np.isnan(expected)
    if not np.array_equal(nan_a, nan_e):
        return False
    a, e = actual[~nan_a], expected[~nan_e]
    return bool(np.all(np.abs(a - e) <= REL_TOL * np.maximum(np.abs(a), np.abs(e))))


def pair_summary(report) -> list:
    """rmse, max_abs, gap_fraction, then the four rule-change counts."""
    rc = report.rule_changes
    return [
        report.rmse,
        report.max_abs,
        report.gap_fraction,
        rc["unchanged"],
        rc["changed"],
        rc["only_a"],
        rc["only_b"],
    ]


class Workload:
    name = ""
    trace_ops = 0  # ops in a traced run (each also run once untraced)
    oracle_every = 1  # cross-check op k against the oracles when k % this == 0

    def __init__(self, fuzzgrid, oracles, workdir: Path):
        self.fg = fuzzgrid
        self.cli = fuzzgrid.cli
        self.oracles = oracles
        self.workdir = workdir
        self.reference = self._load_reference()

    def _load_reference(self) -> dict:
        """Recorded summaries by op seed; empty when the file is missing,
        which run.py refuses and only make_reference.py starts from."""
        path = REFERENCE_DIR / f"{self.name}.json"
        if not path.exists():
            return {}
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return {int(seed): summary for seed, summary in doc["ops"].items()}

    def params(self) -> dict:
        raise NotImplementedError

    def op(self, seed: int):
        """Run one op; returns its raw output (kept only until summarized)."""
        raise NotImplementedError

    def summary(self, raw) -> dict:
        """JSON-able, deterministic digest of an op's output."""
        raise NotImplementedError

    def check(self, seed: int, raw, summary: dict) -> list:
        """Mismatches of one op's output; empty when it is correct."""
        errors = self.invariants(summary)
        expected = self.reference.get(seed)
        if expected is not None and not close(summary, expected):
            errors.append(f"seed {seed}: output differs from the recorded reference")
        return errors

    def invariants(self, summary: dict) -> list:
        return []

    def oracle_check(self, seed: int, raw) -> list:
        return []

    def check_model(self, label: str, model, data, cfg) -> list:
        """Compare a model with the oracle for its learner on the same data."""
        inputs, output = self.cli.build_partitions(cfg)
        examples = [OracleExample(tuple(ex.x), ex.z) for ex in data]
        if cfg.algorithm == self.cli.SIMPLIFIED:
            conclusions, degrees = self.oracles.wm_grid(examples, inputs, output)
            ok = grids_close(model.conclusions, conclusions) and grids_close(
                model.degrees, degrees
            )
        else:
            conclusions = self.oracles.cluster_grid(examples, inputs, output)
            ok = grids_close(model.conclusions, conclusions)
        return [] if ok else [f"{label}: {cfg.algorithm} model differs from the oracle"]


class PairWorkload(Workload):
    """The four algorithm-ladder cells through ``cli.run_pair`` at one seed."""

    n_examples = 100
    epochs = 50

    def __init__(self, *args):
        super().__init__(*args)
        base = self.cli.ExperimentConfig(
            self.cli.SIMPLIFIED, n_examples=self.n_examples, epochs=self.epochs
        )
        self.cells = self.cli.preset_cells("algorithm-ladder", base)

    def params(self) -> dict:
        fields = dataclasses.asdict(self.cells[0])
        fields["algorithm"] = [cell.algorithm for cell in self.cells]
        return fields

    def op(self, seed: int):
        return [self.cli.run_pair(cell, seed) for cell in self.cells]

    def summary(self, raw) -> dict:
        return {"pairs": [pair_summary(report) for _, _, report in raw]}

    def invariants(self, summary: dict) -> list:
        errors = []
        for cell, pair in zip(self.cells, summary["pairs"]):
            rmse, max_abs, gap = pair[:3]
            cells = sum(pair[3:])
            if not 0.0 <= gap <= 1.0 or cells > cell.input_sets**2:
                errors.append(f"{cell.algorithm}: impossible gap or rule counts {pair}")
            elif gap < 1.0 and not (0.0 <= rmse <= max_abs):
                errors.append(f"{cell.algorithm}: rmse {rmse} outside [0, max_abs {max_abs}]")
        return errors

    def oracle_check(self, seed: int, raw) -> list:
        errors = []
        for cell, (clean, noisy, _) in zip(self.cells, raw):
            if cell.algorithm == self.cli.NEUROFUZZY:
                continue
            spec = self.fg.DataSpec(
                n=cell.n_examples, domain=cell.domain, distribution=cell.distribution, seed=seed
            )
            clean_data = self.fg.make_plane_dataset(spec)
            noisy_data = self.fg.make_plane_dataset(
                dataclasses.replace(spec, noise_level=cell.noise_level)
            )
            errors += self.check_model(f"seed {seed} clean", clean, clean_data, cell)
            errors += self.check_model(f"seed {seed} noisy", noisy, noisy_data, cell)
        return errors


class Ladder(PairWorkload):
    name = "ladder"
    trace_ops = 48
    oracle_every = 16


class LargeN(PairWorkload):
    name = "large-n"
    n_examples = 1000
    epochs = 1
    trace_ops = 16
    oracle_every = 50


class CliFiles(Workload):
    """The README loop through ``cli.main``, in-process, in one directory."""

    name = "cli-files"
    trace_ops = 32
    oracle_every = 16
    n_examples = 100
    resolution = 100

    def params(self) -> dict:
        return {
            "n": self.n_examples,
            "noise": NOISE,
            "algorithm": "simplified",
            "resolution": self.resolution,
        }

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def argvs(self, seed: int):
        p, n, s, r = self._path, str(self.n_examples), str(seed), str(self.resolution)
        return [
            ["gen", "--out", p("clean.csv"), "--n", n, "--seed", s],
            ["gen", "--out", p("noisy.csv"), "--n", n, "--seed", s, "--noise", str(NOISE)],
            ["train", p("clean.csv"), p("clean.model"), "--algo", "simplified"],
            ["train", p("noisy.csv"), p("noisy.model"), "--algo", "simplified"],
            ["diff", p("clean.model"), p("noisy.model"), "--out", p("report.csv"),
             "--resolution", r],
            ["eval", p("clean.model"), "--resolution", r],
        ]

    def op(self, seed: int):
        codes, outputs = [], []
        for argv in self.argvs(seed):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes.append(self.cli.main(argv))
            outputs.append(out.getvalue())
        return codes, outputs

    @staticmethod
    def _metrics(text: str) -> list:
        """rmse, max_abs, gap_fraction from key=value lines (None for NaN)."""
        values = {}
        for line in text.splitlines():
            key, sep, value = line.partition("=")
            if sep and key in ("rmse", "max_abs", "gap_fraction"):
                values[key] = None if value == "NaN" else float(value)
        return [values.get(key) for key in ("rmse", "max_abs", "gap_fraction")]

    def _report(self) -> np.ndarray:
        """The report's x, y, diff rows as one array, parsed without fuzzgrid."""
        rows = []
        with open(self._path("report.csv"), encoding="utf-8") as fh:
            for line in fh:
                if line[:1] not in ("#", "x"):
                    rows.append([float(v) for v in line.split(",")])
        return np.array(rows).reshape(-1, 3)

    def layout(self, report: np.ndarray, heatmap: list) -> list:
        """Mismatches in where the report's rows and the heatmap's characters sit."""
        res = self.resolution
        if len(report) != res**2 or [len(line) for line in heatmap] != [res] * res:
            return ["report or heatmap has the wrong size"]
        x, y, diff = (report[:, c].reshape(res, res) for c in range(3))
        errors = []
        # Rows run over x, and over y within each x, both increasing.
        if not (
            np.all(x == x[:, :1])
            and np.all(y == y[:1])
            and np.all(np.diff(x[:, 0]) > 0)
            and np.all(np.diff(y[0]) > 0)
        ):
            errors.append("report rows are not in x-major grid order")
        # The heatmap's top line is the highest y; x grows to the right.
        chars = np.array([list(line) for line in reversed(heatmap)]).T
        gaps = chars == self.cli.GAP_CHAR
        levels = np.array([self.cli.HEAT_RAMP.find(c) for c in chars[~gaps]])
        if not np.array_equal(gaps, np.isnan(diff)):
            errors.append("heatmap gaps differ from the report's NaN cells")
        elif np.any(levels < 0):
            errors.append("heatmap has characters outside its ramp")
        else:
            # A larger |diff| never gets a lower bucket.
            order = np.argsort(np.abs(diff[~gaps]), kind="stable")
            if np.any(np.diff(levels[order]) < 0):
                errors.append("heatmap buckets do not grow with |diff|")
        return errors

    def summary(self, raw) -> dict:
        codes, outputs = raw
        digests = {}
        for name in ("clean.csv", "noisy.csv"):
            with open(self._path(name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        # diff prints the heatmap rows, then rmse, max_abs, gap_fraction and
        # the rule-change line.
        lines = outputs[4].splitlines()
        heatmap, tail = lines[:-4], lines[-4:]
        rules = tail[-1].split() if tail else []
        counts = [int(field.split("=")[1]) for field in rules[1:]]
        report = self._report()
        diff = report[:, 2]
        finite = diff[~np.isnan(diff)]
        return {
            "codes": codes,
            "datasets": digests,
            "diff": self._metrics("\n".join(tail)) + counts,
            "eval": self._metrics(outputs[5]),
            "heatmap_sha256": hashlib.sha256("\n".join(heatmap).encode()).hexdigest(),
            # rows, NaN cells, then rmse and max_abs recomputed from the rows
            "report": [
                len(diff),
                len(diff) - len(finite),
                float(np.sqrt(np.mean(finite**2))) if finite.size else None,
                float(np.max(np.abs(finite))) if finite.size else None,
            ],
            "layout": self.layout(report, heatmap),
        }

    def invariants(self, summary: dict) -> list:
        errors = []
        if summary["codes"] != [0] * 6:
            errors.append(f"nonzero exit codes {summary['codes']}")
        if len(summary["diff"]) != 7:
            errors.append("diff printed no rule-change line")
        rows, gaps, rmse, max_abs = summary["report"]
        printed_rmse, printed_max_abs, gap_fraction = summary["diff"][:3]
        if rows != self.resolution**2:
            errors.append(f"report has {rows} rows")
        elif gap_fraction is None or gaps != round(gap_fraction * rows) or not close(
            [rmse, max_abs], [printed_rmse, printed_max_abs]
        ):
            errors.append("report rows disagree with the printed diff metrics")
        return errors + summary["layout"]

    def _read_examples(self, name: str) -> list:
        """The dataset CSV parsed without fuzzgrid's reader."""
        with open(self._path(name), encoding="utf-8") as fh:
            rows = fh.read().split("\n")[1:]
        out = []
        for row in rows:
            if row:
                x, y, z = (float(v) for v in row.split(","))
                out.append(OracleExample((x, y), z))
        return out

    def oracle_check(self, seed: int, raw) -> list:
        errors = []
        cfg = self.cli.ExperimentConfig(self.cli.SIMPLIFIED)  # what `train` builds
        for stem in ("clean", "noisy"):
            data = self._read_examples(f"{stem}.csv")
            model = self.fg.load_model(self._path(f"{stem}.model"))
            errors += self.check_model(f"seed {seed} {stem}", model, data, cfg)
        return errors


WORKLOADS = {w.name: w for w in (Ladder, LargeN, CliFiles)}
