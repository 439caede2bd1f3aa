"""Record the reference outputs that the benchmark checks each op against.

    python3 perfbench/make_reference.py                  # every workload
    python3 perfbench/make_reference.py --workload ladder

For op seeds 0 .. SEEDS-1, writes each op's output summary to
``perfbench/reference/<workload>.json``. A run whose base seed is below
SEEDS covers the same seeds in its first SEEDS ops (``base_seed ^ k`` permutes
them), so every one of those ops is compared with the reference; later ops
and other seeds are checked by invariants and the oracles only.

Regenerate only for a change that is meant to alter fuzzgrid's outputs, and
say so where the change is recorded: a speedup must pass against the
reference it inherited.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads

SEEDS = 256


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    fuzzgrid, oracles = run.import_program()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with run.scratch_dir() as workdir:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name](fuzzgrid, oracles, workdir)
            workload.reference = {}
            ops = {}
            for seed in range(SEEDS):
                raw = workload.op(seed)
                summary = workload.summary(raw)
                errors = workload.check(seed, raw, summary)
                if seed % workload.oracle_every == 0:
                    errors += workload.oracle_check(seed, raw)
                if errors:
                    print("\n".join(errors), file=sys.stderr)
                    return 1
                ops[str(seed)] = summary
            doc = {
                "workload": name,
                "params": workload.params(),
                "source_commit": run.git_commit(),
                "seeds": SEEDS,
                "ops": ops,
            }
            path = workloads.REFERENCE_DIR / f"{name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"wrote {SEEDS} op summaries to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
