#!/usr/bin/env python3
"""Steadiness check for the LotusX benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 100] [--workload NAME ...]
                                [--against OLD.json] [--save NEW.json]

Runs perfbench/run.py --runs times per workload, each with another seed,
and prints for every end-to-end metric its median and its spread (the
distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median)
next to a third of the metric's bound from BENCHMARK.json; a wider
spread is flagged. With --against, the medians of an earlier set (a file
this script saved) are compared too, and a median worse than the earlier
one by more than the bound is flagged. It also prints each run's share of
failed commands, which must be 0, and the measured repeat share of RUN
queries. The raw results go to --save (default .bench_build/steady.json).
Exits 0 only if nothing was flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--against", type=Path)
    parser.add_argument("--save", type=Path, default=ROOT / ".bench_build" / "steady.json")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}

    results = {}
    all_steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        failed_shares = []
        repeat_shares = []
        for i in range(args.runs):
            seed = args.first_seed + i
            step = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if step.returncode != 0:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, step.returncode))
                return 1
            result = json.loads(step.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            failed_shares.append(result["failed"] / result["attempted"])
            tcp = json.loads((ROOT / ".bench_build" / "runs" / ("%s-%d" % (workload, seed)) /
                              "tcp.json").read_text())
            repeat_shares.append(tcp["run_repeat_share"])
        results[workload] = {"metrics": values, "failed_shares": failed_shares,
                             "repeat_shares": repeat_shares}
        print("\n%s: %d runs, seeds %d..%d" % (workload, args.runs, args.first_seed,
                                             args.first_seed + args.runs - 1))
        print("  %-20s %14s %8s %8s %9s %s" % ("metric", "median", "spread", "bound/3",
                                              "vs earlier", ""))
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            limit = bounds[name] / 3
            flags = [] if spread < limit else ["WIDE"]
            change = ""
            if workload in earlier:
                before = statistics.median(earlier[workload]["metrics"][name])
                worse = (median - before if better[name] == "lower" else before - median) / before
                change = "%+.2f%%" % ((median - before) / before * 100)
                if worse > bounds[name]:
                    flags.append("WORSE")
            all_steady = all_steady and not flags
            print("  %-20s %14.6g %7.2f%% %7.2f%% %9s %s" % (
                name, median, spread * 100, limit * 100, change, " ".join(flags)))
        if any(failed_shares):
            all_steady = False
            print("  FAILED commands in some runs")
        print("  failed share per run: %s" % sorted(set(failed_shares)))
        print("  RUN repeat share: median %.3f (min %.3f, max %.3f)" % (
            statistics.median(repeat_shares), min(repeat_shares), max(repeat_shares)))
    args.save.parent.mkdir(parents=True, exist_ok=True)
    args.save.write_text(json.dumps(results, indent=1) + "\n")
    print("\nsteady" if all_steady else "\nnot steady")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
