#!/usr/bin/env python3
"""Alternating benchmark pairs: a base commit against the working tree.

    python3 scripts/bench_pairs.py BASE_REF WORKLOAD [--pairs N] [--seed S]

Exports ``BASE_REF`` with ``git archive`` into a temporary directory, leaving
the checkout as it is, and runs ``bench/run.py --trace 0`` for BENCHMARK.json's
``run_seconds`` on that copy and on the working tree, ``N`` pairs (default
10), the side that runs first swapping from pair to pair. For every
end-to-end metric it prints, as a Markdown table row, each side's median and
quartiles, the pairs the working tree won (ties count for neither side), and
how much worse the working tree's median is than the base's (negative when
better) against the metric's bound. The verdict column reads:

- ``gain``: the working tree won at least nine tenths of the pairs, and its
  median is better by more than the base's interquartile range;
- ``over bound``: the median is worse than the base's by more than the bound;
- ``unresolved``: the base's interquartile range is wider than the bound, and
  not every working-tree run beats every base run;
- ``within bound``: none of these.

Above the table it prints each side's median count of attempted ops, and the
change of the median ``peak_rss_mb`` per extra attempted op in KB. The bench
keeps every op's output until the run ends, so a faster op raises
``peak_rss_mb`` by about that much per op without any real memory change.

Each run's result line goes to stderr as it completes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from bench_snapshot import ROOT, run


def export(ref, dest):
    """Write the tree of ``ref`` into ``dest`` without touching the checkout."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(metric, base, change):
    """One row of the summary: both sides' figures, wins and the verdict."""
    lower = metric["better"] == "lower"
    wins = sum(c < b if lower else c > b for b, c in zip(base, change))
    med_b, med_c = statistics.median(base), statistics.median(change)
    (q1_b, q3_b), (q1_c, q3_c) = quartiles(base), quartiles(change)
    worse = (med_c - med_b) / med_b * (1 if lower else -1)
    iqr = q3_b - q1_b
    all_better = max(change) < min(base) if lower else min(change) > max(base)
    if 10 * wins >= 9 * len(base) and worse < 0 and abs(med_c - med_b) > iqr:
        word = "gain"
    elif worse > metric["bound"]:
        word = "over bound"
    elif iqr / abs(med_b) > metric["bound"] and not all_better:
        word = "unresolved"
    else:
        word = "within bound"
    return (
        f"| {metric['name']} | {metric['unit']} | {med_b:.4g} | {q1_b:.4g}–{q3_b:.4g} "
        f"| {med_c:.4g} | {q1_c:.4g}–{q3_c:.4g} | {wins}/{len(base)} "
        f"| {100 * worse:+.1f}% | {100 * metric['bound']:.0f}% | {word} |"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_ref", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("workload", help="a workload that BENCHMARK.json declares")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"]
    results = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as base_root:
        export(args.base_ref, base_root)
        roots = {"base": base_root, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run(args.workload, args.seed, seconds, roots[side])
                results[side].append(result)
                print(f"pair {pair + 1} {side}: {json.dumps(result)}", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds} s; "
          f"base {args.base_ref} against the working tree")
    ops, rss = {}, {}
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = sum(r["correct"] for r in runs)
        ops[side] = statistics.median(r["attempted"] for r in runs)
        rss[side] = statistics.median(r["metrics"]["peak_rss_mb"]["value"] for r in runs)
        print(f"  {side}: {correct}/{len(runs)} runs correct, {failed}/{attempted} ops failed, "
              f"median {ops[side]:g} ops attempted")
    extra = ops["change"] - ops["base"]
    if extra:
        kb = 1024.0 * (rss["change"] - rss["base"]) / extra
        print(f"  peak_rss_mb per extra op: {kb:+.2f} KB/op over {extra:+g} ops")
    else:
        print("  peak_rss_mb per extra op: n/a (equal op counts)")
    print("| metric | unit | base median | base q1–q3 | change median | change q1–q3 "
          "| wins | worse by | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        base = [r["metrics"][metric["name"]]["value"] for r in results["base"]]
        change = [r["metrics"][metric["name"]]["value"] for r in results["change"]]
        print(verdict(metric, base, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
