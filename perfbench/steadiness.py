#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how much each metric spreads.

For every workload in BENCHMARK.json it runs the benchmark command once per
seed 1..runs, with the run_seconds of BENCHMARK.json, and prints, per metric,
the min, median and max of the runs and the interquartile range as a share
of the median (the spread the metric's bound is judged against). With
--sets 2 it repeats the whole set and also prints, per end-to-end metric, the
median of each set and how much worse the second is than the first. Run it
from the repository root:

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out steadiness.md

--trace 1 summarizes the per-layer metrics of traced runs instead.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    rep = json.loads(lines[-1])
    if not rep["correct"] or rep["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {rep['failed']} failed jobs")
    return rep, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(d, first, second):
    """How much worse the second median is than the first, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if d["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="also write the tables as markdown to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    defs = bench["per_layer" if args.trace else "end_to_end"]
    seeds = list(range(1, args.runs + 1))

    # vals[set][workload][metric] is the list of per-run values.
    vals, walls = [], []
    for k in range(args.sets):
        vals.append({w: {d["name"]: [] for d in defs} for w in workloads})
        walls.append({w: [] for w in workloads})
        for w in workloads:
            for s in seeds:
                rep, wall = run_once(bench["command"], w, s, seconds, args.trace)
                walls[k][w].append(wall)
                for d in defs:
                    vals[k][w][d["name"]].append(rep["metrics"][d["name"]]["value"])
                print(f"set {k + 1} {w} seed {s}: {wall:.1f} s, {rep['attempted']} jobs", file=sys.stderr)

    out = [f"Runs: {args.runs} per workload and set, {args.sets} set(s), seeds {seeds[0]}-{seeds[-1]}, "
           f"{seconds} s windows, trace={args.trace}.", ""]
    worst, drift = 0.0, 0.0
    for w in workloads:
        out += [f"### {w}", ""]
        for k in range(args.sets):
            out += [f"Set {k + 1}. Invocation wall time: median {statistics.median(walls[k][w]):.1f} s, "
                    f"max {max(walls[k][w]):.1f} s.", "",
                    "| metric | unit | min | median | max | IQR/median | bound |",
                    "|---|---|---:|---:|---:|---:|---:|"]
            for d in defs:
                v = vals[k][w][d["name"]]
                sp = spread(v)
                bound = d.get("bound")
                if bound is not None and d["name"] != "setup_s":
                    worst = max(worst, sp / bound)
                out.append(f"| {d['name']} | {d['unit']} | {min(v):.6g} | {statistics.median(v):.6g} | "
                           f"{max(v):.6g} | {sp:.2%} | {'' if bound is None else f'{bound:.0%}'} |")
            out.append("")
        if args.sets > 1 and not args.trace:
            out += ["Medians of set 1 and set 2. A positive change means set 2 is worse.", "",
                    "| metric | set 1 | set 2 | change | bound |", "|---|---:|---:|---:|---:|"]
            for d in defs:
                a = statistics.median(vals[0][w][d["name"]])
                b = statistics.median(vals[1][w][d["name"]])
                change = worse_by(d, a, b)
                drift = max(drift, change / d["bound"])
                out.append(f"| {d['name']} | {a:.6g} | {b:.6g} | {change:+.2%} | {d['bound']:.0%} |")
            out.append("")
    if not args.trace:
        out.append(f"Largest spread as a share of its bound (setup_s excluded): {worst:.2f}.")
        if args.sets > 1:
            out.append(f"Largest worsening of set 2 against set 1 as a share of its bound: {drift:.2f}.")
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
