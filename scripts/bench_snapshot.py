#!/usr/bin/env python3
"""Snapshot of the benchmark's end-to-end figures, one file per change.

Runs ``bench/run.py --trace 0`` for every workload that BENCHMARK.json
declares, at seeds 1 and 20211029, for its ``run_seconds`` each, and writes
the final JSON line of every run to ``BENCH_<number>.json`` at the repo
root, where ``<number>`` numbers the change being recorded:

    python3 scripts/bench_snapshot.py <number>

The runs are sequential and take a few minutes. The file also records the
Python and numpy versions and the CPU count, since the figures only compare
within one machine.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 20211029)


def run(workload, seed, seconds, root=ROOT):
    """The result line of one untraced bench run in the checkout at ``root``."""
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("number", type=int, help="number of the change: BENCH_<number>.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            print(f"{workload} seed {seed} ({seconds} s)", file=sys.stderr)
            runs.setdefault(workload, {})[str(seed)] = run(workload, seed, seconds)
    snapshot = {
        "change": args.number,
        "command": "python3 bench/run.py --workload W --seed S --seconds N --trace 0",
        "run_seconds": seconds,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
