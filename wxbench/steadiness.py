#!/usr/bin/env python3
"""Steadiness report for the wx benchmark.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, for every end-to-end metric, the median and quartiles of the runs
and their spread: the distance between the quartiles as a share of the
median (quartiles as Python's statistics.quantiles(values, n=4) gives
them). A spread above a third of the metric's bound is flagged.

With --against, the runs are also compared with an earlier set saved by
--raw: for each metric, how much worse the new median is than the earlier
one, as a share of the earlier median, against the metric's bound.

Run from the repository root:

    python3 wxbench/steadiness.py --runs 10 [--workloads solve,measure]
        [--first-seed 1] [--raw runs.json] [--against earlier.json]

The report goes to standard output (STEADINESS.md is one), the progress
of each run to standard error.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: failed checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread_table(bench, runs):
    rows = [
        "| workload | metric | unit | runs | median | q1 | q3 | spread | bound |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    worst = []
    for workload, results in runs.items():
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= metric["bound"] / 3 else " !"
            worst.append((spread / metric["bound"], workload, metric["name"]))
            rows.append(
                f"| {workload} | {metric['name']} | {metric['unit']} | {len(values)} "
                f"| {median:.6g} | {q1:.6g} | {q3:.6g} | {spread:.2%}{flag} "
                f"| {metric['bound']:.0%} |"
            )
    worst.sort(reverse=True)
    return "\n".join(rows), worst


def shift_table(bench, earlier, runs):
    rows = [
        "| workload | metric | earlier median | this median | worse by | bound | within |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, results in runs.items():
        for metric in bench["end_to_end"]:
            before = statistics.median(r[metric["name"]] for r in earlier[workload])
            after = statistics.median(r[metric["name"]] for r in results)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (after - before) / before
            rows.append(
                f"| {workload} | {metric['name']} | {before:.6g} | {after:.6g} "
                f"| {worse:+.2%} | {metric['bound']:.0%} "
                f"| {'yes' if worse <= metric['bound'] else 'NO'} |"
            )
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--raw")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    runs = {}
    for workload in names:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs[workload].append(run_once(bench, workload, seed))
            print(f"{workload} seed {seed}: {runs[workload][-1]}", file=sys.stderr)
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(runs, f, indent=1)

    seeds = f"{args.first_seed}..{args.first_seed + args.runs - 1}"
    text, worst = spread_table(bench, runs)
    report = [
        "# Steadiness report",
        "",
        f"`python3 wxbench/steadiness.py --runs {args.runs} --first-seed {args.first_seed}`: "
        f"one `--trace 0` run of {bench['run_seconds']} s per seed ({seeds}) on each workload. "
        "Spread is (q3 - q1) / median; `!` marks a spread above a third of the bound.",
        "",
        text,
    ]
    if worst:
        share, workload, metric = worst[0]
        report += ["", f"Widest spread: {workload}/{metric}, at {share:.0%} of its bound."]
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
        earlier_text, _ = spread_table(bench, earlier)
        report += [
            "",
            "## Against the earlier set",
            "",
            "How much worse this set's median is than the earlier set's, as a share "
            "of the earlier median.",
            "",
            shift_table(bench, earlier, runs),
            "",
            "## The earlier set",
            "",
            earlier_text,
        ]
    print("\n".join(report))


if __name__ == "__main__":
    main()
