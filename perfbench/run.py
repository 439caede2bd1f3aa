"""Run one fuzzgrid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the run times whole ops through fuzzgrid's public API for
``--seconds`` (and for at least 100 ops, so that a 90th percentile has ten
samples beyond it) and reports the end-to-end metrics. With ``--trace 1`` it
runs a fixed schedule of ops twice each, untraced and traced in alternating
order, and reports per-layer metrics from the spans. Every op's output is
checked. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table goes
to standard error and the full record, deterministic fields apart from
measured ones, to ``perfbench/out/``. ``--workload all`` runs every workload,
each in a child process of its own.

The program is imported from ``src/`` of the checkout this file sits in; the
run fails, printing no result, when that source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LEARNERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 12  # set-up probes per timed run, spread evenly through it
MIN_OPS = 100  # op_ms_p90 needs ten samples beyond it
MAX_SECONDS = 140.0  # stop timing here, whatever --seconds says
DIGEST_OPS = 16  # ops whose output summaries the record hashes

SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import fuzzgrid.cli; fuzzgrid.cli.build_parser()"
)

# Printed and recorded by every timed run: (name, unit).
TIMED = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# The end-to-end metrics of BENCHMARK.json, the only ones in the result line.
# ops_per_s and op_ms_p50 are left out: they follow how much of a run the
# shared host spends in its slow phase, and their IQR over median reached
# 24-27% across ten runs of identical code, more than any bound may be. The
# slowest tenth of ops, and so op_ms_p90, stays near the slow-phase level.
END_TO_END = ("setup_s", "op_ms_p90", "peak_rss_mb")

# Per-layer metrics, per traced op: (name, unit).
PER_LAYER = (
    ("membership.degrees.calls", "count"),
    ("membership.degrees.self_s", "s"),
    ("membership.degrees.calls_per_example", "ratio"),
    ("datagen.make_plane_dataset.self_s", "s"),
    ("datagen.examples", "count"),
    ("datagen.us_per_example", "us"),
    ("datagen.io.self_s", "s"),
    ("datagen.io.bytes", "bytes"),
    ("learning.neurofuzzy_learn.self_s", "s"),
    ("learning.wm_learn.self_s", "s"),
    ("learning.cluster_learn.self_s", "s"),
    ("learning.examples", "count"),
    ("inference.rule_diff.self_s", "s"),
    ("inference.model_io.self_s", "s"),
    ("inference.model_io.bytes", "bytes"),
    ("evaluation.grid_values.self_s", "s"),
    ("evaluation.grid_points", "count"),
    ("evaluation.difference_surface.self_s", "s"),
    ("evaluation.model_error.self_s", "s"),
    ("evaluation.write_diff_report.self_s", "s"),
    ("evaluation.report_bytes", "bytes"),
    ("cli.render_heatmap.self_s", "s"),
    ("cli.run_pair.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.errors", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_per_op", "count"),
)

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under perfbench/out/ for an op's files, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"tmp-{os.getpid()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# arithmetic


def p50(samples) -> float:
    return statistics.median(samples)


def p90(samples) -> float:
    """Nearest-rank 90th percentile; refuses fewer than MIN_OPS samples."""
    if len(samples) < MIN_OPS:
        raise ValueError(
            f"p90 needs at least {MIN_OPS} samples (ten beyond it), got {len(samples)}"
        )
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def spread(values) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# ---------------------------------------------------------------------------
# set-up: locate and import the program under test


def probe_setup() -> float:
    """Wall seconds for a fresh interpreter to import fuzzgrid.cli and build its parser."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return elapsed


def import_program():
    """fuzzgrid from this checkout's src/, and the oracles from its tests/."""
    sys.path.insert(0, str(SRC))
    import fuzzgrid
    import fuzzgrid.cli

    if Path(fuzzgrid.__file__).resolve().parent != SRC / "fuzzgrid":
        raise BenchError(f"imported fuzzgrid from {fuzzgrid.__file__}, not {SRC}")
    oracle_path = ROOT / "tests" / "oracles.py"
    if not oracle_path.is_file():
        raise BenchError(f"missing {oracle_path}")
    spec = importlib.util.spec_from_file_location("fuzzgrid_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return fuzzgrid, oracles


# ---------------------------------------------------------------------------
# running ops


class Tally:
    """Ops attempted and failed, the first few failure messages, and the
    output summaries of the first DIGEST_OPS ops, which every run completes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference_checked = 0
        self.oracle_checked = 0
        self.errors = []
        self.summaries = {}

    def record(self, k: int, summary, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 20 - len(self.errors))])
        if summary is not None and k < DIGEST_OPS:
            self.summaries.setdefault(k, summary)

    def outputs_sha256(self) -> str:
        ordered = [self.summaries.get(k) for k in range(DIGEST_OPS)]
        return hashlib.sha256(json.dumps(ordered, sort_keys=True).encode()).hexdigest()


def attempt(workload, k: int, base_seed: int, tally: Tally, run_op=None, oracle=True):
    """Run, time and check op k; returns its latency in seconds (None if it raised)."""
    seed = workloads.op_seed(base_seed, k)
    run_op = run_op or workload.op
    errors = []
    elapsed = summary = None
    try:
        start = time.perf_counter()
        raw = run_op(seed)
        elapsed = time.perf_counter() - start
        summary = workload.summary(raw)
        errors = workload.check(seed, raw, summary)
        tally.reference_checked += seed in workload.reference
        if oracle and k % workload.oracle_every == 0:
            errors += workload.oracle_check(seed, raw)
            tally.oracle_checked += 1
    except Exception as e:  # a failing op is counted and the run goes on
        errors.append(f"seed {seed}: {type(e).__name__}: {e}")
    tally.record(k, summary, errors)
    return elapsed


def run_timed(workload, base_seed: int, seconds: float):
    """Ops k = 0, 1, ... until both --seconds and MIN_OPS are reached.

    The SETUP_RUNS set-up probes run between ops, one every --seconds /
    SETUP_RUNS, so that they see the same host phases as the ops do.
    """
    tally = Tally()
    attempt(workload, 0, base_seed, Tally(), oracle=False)  # warm-up, not counted
    latencies, setup = [], []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_RUNS and elapsed >= (len(setup) + 0.5) * seconds / SETUP_RUNS:
            setup.append(probe_setup())
            continue
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(latencies) >= MIN_OPS):
            break
        latency = attempt(workload, k, base_seed, tally)
        if latency is not None:
            latencies.append(latency)
        k += 1
    wall = time.perf_counter() - start
    while len(setup) < SETUP_RUNS:  # a run cut at MAX_SECONDS
        setup.append(probe_setup())
    return latencies, setup, tally, wall


def run_traced(workload, base_seed: int):
    """The fixed op schedule, each op untraced and traced in alternating order."""
    tally = Tally()
    tracer = Tracer()
    attempt(workload, 0, base_seed, Tally(), oracle=False)  # warm-up, not counted
    traced_op = tracer.wrap_call("bench.op", workload.op)
    plain, traced = [], []
    for k in range(workload.trace_ops):
        order = (False, True) if k % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                plain.append(attempt(workload, k, base_seed, tally))
                continue
            # Installed around the whole attempt so that wrapping stays out of
            # the op's time; the checks of a traced op call no fuzzgrid code.
            tracer.install()
            try:
                traced.append(attempt(workload, k, base_seed, tally, traced_op, oracle=False))
            finally:
                tracer.uninstall()
    return tracer, plain, traced, tally


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(totals: dict, ops: int, overhead: float, spans: int) -> dict:
    """Per-layer metrics per traced op, from the tracer's per-name totals."""

    def total(key, *names):
        return sum(totals[n][key] for n in names if n in totals)

    def self_s(*names):
        return total("self_ns", *names) / 1e9 / ops

    degrees_calls = total("calls", "membership.degrees")
    learning_examples = total("top_items", *LEARNERS)
    datagen_examples = total("items", "datagen.make_plane_dataset")
    datagen_self = total("self_ns", "datagen.make_plane_dataset")
    values = {
        "membership.degrees.calls": degrees_calls / ops,
        "membership.degrees.self_s": self_s("membership.degrees"),
        "membership.degrees.calls_per_example": (
            degrees_calls / learning_examples if learning_examples else 0.0
        ),
        "datagen.make_plane_dataset.self_s": self_s("datagen.make_plane_dataset"),
        "datagen.examples": datagen_examples / ops,
        "datagen.us_per_example": (
            datagen_self / 1e3 / datagen_examples if datagen_examples else 0.0
        ),
        "datagen.io.self_s": self_s("datagen.write_dataset", "datagen.read_dataset"),
        "datagen.io.bytes": total("items", "datagen.write_dataset", "datagen.read_dataset") / ops,
        "learning.neurofuzzy_learn.self_s": self_s("learning.neurofuzzy_learn"),
        "learning.wm_learn.self_s": self_s("learning.wm_learn"),
        "learning.cluster_learn.self_s": self_s("learning.cluster_learn"),
        "learning.examples": learning_examples / ops,
        "inference.rule_diff.self_s": self_s("inference.rule_diff"),
        "inference.model_io.self_s": self_s("inference.save_model", "inference.load_model"),
        "inference.model_io.bytes": total("items", "inference.save_model", "inference.load_model") / ops,
        "evaluation.grid_values.self_s": self_s("evaluation.grid_values"),
        "evaluation.grid_points": total("items", "evaluation.grid_values") / ops,
        "evaluation.difference_surface.self_s": self_s("evaluation.difference_surface"),
        "evaluation.model_error.self_s": self_s("evaluation.model_error"),
        "evaluation.write_diff_report.self_s": self_s("evaluation.write_diff_report"),
        "evaluation.report_bytes": total("items", "evaluation.write_diff_report") / ops,
        "cli.render_heatmap.self_s": self_s("cli.render_heatmap"),
        "cli.run_pair.self_s": self_s("cli.run_pair"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.main.errors": total("errors", "cli.main") / ops,
        "trace.overhead_frac": overhead,
        "trace.spans_per_op": spans / ops,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def host_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_table(workload: str, metrics: dict, notes: dict, stream) -> None:
    print(f"# {workload}", file=stream)
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']:<6} {note}", file=stream)


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> dict:
    if not (SRC / "fuzzgrid" / "__init__.py").is_file():
        raise BenchError(f"no fuzzgrid source tree under {SRC}")
    fuzzgrid, oracles = import_program()
    with scratch_dir() as workdir:
        workload = workloads.WORKLOADS[args.workload](fuzzgrid, oracles, workdir)
        if not workload.reference:
            missing = workloads.REFERENCE_DIR / f"{workload.name}.json"
            raise BenchError(f"no recorded reference {missing}")
        stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        deterministic = {
            "workload": workload.name,
            "base_seed": args.seed,
            "op_seed": "base_seed ^ k",
            "trace": args.trace,
            "params": workload.params(),
            "reference_seeds": len(workload.reference),
        }
        measured = {"seconds_requested": args.seconds}
        if args.trace:
            tracer, plain, traced, tally = run_traced(workload, args.seed)
            totals = tracer.totals()
            ops = len(traced)
            plain_ok = [t for t in plain if t is not None]
            traced_ok = [t for t in traced if t is not None]
            plain_rate = len(plain_ok) / sum(plain_ok)
            traced_rate = len(traced_ok) / sum(traced_ok)
            overhead = 1.0 - traced_rate / plain_rate
            measured["ops_per_s"] = {"untraced": plain_rate, "traced": traced_rate}
            metrics = layer_metrics(totals, ops, overhead, len(tracer))
            deterministic["trace_ops"] = ops
            deterministic["counts"] = {
                name: {k: row[k] for k in ("calls", "items", "top_items", "errors")}
                for name, row in sorted(totals.items())
            }
            deterministic["count_metrics"] = {
                name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "bytes")
            }
            measured["layers"] = {
                name: {"self_s": row["self_ns"] / 1e9, "total_s": row["total_ns"] / 1e9}
                for name, row in sorted(totals.items())
            }
            tracer.write(OUT / f"{stem}.spans.csv.gz")
            notes = {"trace.overhead_frac": f"({ops} ops each way)"}
        else:
            latencies, setup, tally, wall = run_timed(workload, args.seed, args.seconds)
            if len(latencies) < MIN_OPS:
                raise BenchError(
                    f"only {len(latencies)} ops completed in {wall:.1f} s; p90 needs {MIN_OPS}"
                )
            values = {
                "setup_s": p50(setup),
                "ops_per_s": len(latencies) / sum(latencies),
                "op_ms_p50": p50(latencies) * 1e3,
                "op_ms_p90": p90(latencies) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in TIMED}
            measured["wall_s"] = wall
            measured["setup_samples_s"] = setup
            measured["latency_ms"] = [t * 1e3 for t in latencies]
            n = len(latencies)
            notes = {
                "setup_s": f"(median of {len(setup)} interpreters, spread through the run)",
                "ops_per_s": f"({n} ops)",
                "op_ms_p50": f"({n} samples)",
                "op_ms_p90": f"({n} samples)",
            }
        deterministic["outputs_sha256"] = tally.outputs_sha256()
        deterministic["first_op_summary"] = tally.summaries.get(0)
        failed_frac = tally.failed / tally.attempted
        measured.update(
            attempted=tally.attempted,
            failed=tally.failed,
            ops_failed_frac=failed_frac,
            reference_checked=tally.reference_checked,
            oracle_checked=tally.oracle_checked,
            errors=tally.errors,
            metrics=metrics,
        )
        record = {"deterministic": deterministic, "measured": measured, "host": host_facts()}
        with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print_table(workload.name, metrics, notes, sys.stderr)
        print(
            f"{'ops_failed_frac':<40} {failed_frac:>16.6g} {'ratio':<6} "
            f"({tally.failed} of {tally.attempted} ops; {tally.reference_checked} "
            f"checked against the reference, {tally.oracle_checked} against the oracles)",
            file=sys.stderr,
        )
        for error in tally.errors:
            print(f"FAILED {error}", file=sys.stderr)
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics if args.trace else {n: metrics[n] for n in END_TO_END},
        }


def run_all(args) -> int:
    """Every workload, each in a child process that prints its own table."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"# {name}: failed (exit {proc.returncode})", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="base seed; op k uses seed ^ k")
    parser.add_argument("--seconds", type=float, default=35.0, help="timed run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
