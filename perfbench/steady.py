#!/usr/bin/env python3
"""Steadiness report: run each workload several times and show how far
each end-to-end metric spreads.

Run from the root of the repository:

    python3 perfbench/steady.py                      # 10 runs per workload, seeds 1..10
    python3 perfbench/steady.py --runs 5 --workloads serve_mixed
    python3 perfbench/steady.py --passes 2           # two sets of runs, compared
    python3 perfbench/steady.py --same-seed --runs 3 # counters must repeat exactly

Every run lasts `run_seconds` of BENCHMARK.json. For every end-to-end
metric the report prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median. A metric
whose spread exceeds its bound in BENCHMARK.json is flagged `OUTSIDE`
and counted as a problem; one above a third of its bound is flagged
`loose`. With `--passes 2` the whole set runs twice, and a metric
whose second median is worse than the first by more than its bound is
a problem too. Every run must be correct, print exactly the metrics
BENCHMARK.json names, and runs with the same seed must report
identical work counters.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    counters = next((l.split(": ", 1)[1] for l in lines
                     if l.strip().startswith("counters (")), "")
    return json.loads(lines[-1]), counters


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true",
                    help="give every run the first seed")
    ap.add_argument("--workloads", help="comma-separated; default: all")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    problems = []
    medians = {}
    for p in range(1, args.passes + 1):
        for w in workloads:
            runs = []
            seen = {}
            for i in range(args.runs):
                seed = args.first_seed if args.same_seed else args.first_seed + i
                line, counters = run_once(w, seed, seconds)
                runs.append(line)
                print(f"pass {p} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)
                if not line["correct"] or line["failed"] or line["attempted"] < 1:
                    problems.append(f"pass {p} {w} seed {seed}: correct={line['correct']} "
                                    f"attempted={line['attempted']} failed={line['failed']}")
                if sorted(line["metrics"]) != sorted(m["name"] for m in metrics):
                    problems.append(f"pass {p} {w} seed {seed}: metric names differ "
                                    "from BENCHMARK.json")
                if seed in seen and seen[seed] != counters:
                    problems.append(f"pass {p} {w} seed {seed}: work counters differ "
                                    "between runs")
                seen.setdefault(seed, counters)
            if len(runs) < 2:
                continue
            print(f"\npass {p} {w}: {len(runs)} runs of {seconds} s")
            for m in metrics:
                name, bound = m["name"], m["bound"]
                v = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if spread > bound:
                    flag = "OUTSIDE"
                    problems.append(f"pass {p} {w} {name}: spread {spread:.3f} "
                                    f"exceeds bound {bound}")
                elif spread > bound / 3:
                    flag = "loose"
                drift = ""
                if p > 1:
                    worse = worse_by(m, medians[(w, name)], med)
                    drift = f"worse than pass 1 by {100 * worse:5.1f}%"
                    if worse > bound:
                        problems.append(f"pass {p} {w} {name}: median worse than pass 1 "
                                        f"by {worse:.3f}, bound {bound}")
                else:
                    medians[(w, name)] = med
                print(f"  {name:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {100 * spread:5.1f}%  bound {100 * bound:.0f}%  {flag:<8}"
                      f"{drift}")
            print(flush=True)
    if problems:
        print("problems:\n  " + "\n  ".join(problems))
        return 1
    print("no problems")
    return 0


if __name__ == "__main__":
    sys.exit(main())
