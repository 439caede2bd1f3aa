"""Run a workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload ladder --runs 10
    python3 perfbench/spread.py --workload all --runs 10 --first-seed 1

Runs ``run.py`` sequentially with seeds first-seed .. first-seed+runs-1 and
``run_seconds`` from BENCHMARK.json, then prints, per end-to-end metric, the
median of the runs and the distance between their first and third quartile
as a share of that median, next to the metric's bound where BENCHMARK.json
gates it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads


def load_spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seeds, seconds: int) -> list:
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            cwd=run.ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
        with open(run.OUT / f"{workload}-seed{seed}-trace0.json", encoding="utf-8") as fh:
            record = json.load(fh)
        values = {name: m["value"] for name, m in record["measured"]["metrics"].items()}
        print(f"  seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
              file=sys.stderr)
        results.append(values)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    worst = 0.0
    for name in names:
        print(f"# {name}: {args.runs} runs of {spec['run_seconds']} s")
        results = measure(name, seeds, spec["run_seconds"])
        for metric, _ in run.TIMED:
            values = [r[metric] for r in results]
            share = run.spread(values)
            line = f"{metric:<14} median {statistics.median(values):>12.6g}  spread {share:7.2%}"
            bound = bounds.get(metric)
            if bound is not None:
                line += f"  bound {bound:5.0%}  spread/bound {share / bound:5.2f}"
                worst = max(worst, share / bound)
            print(line)
    print(f"largest spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
