#!/usr/bin/env python3
"""Repeats each workload and reports how steady every end-to-end metric is.

    python3 perfbench/steadiness.py                       # 10 seeds, all workloads
    python3 perfbench/steadiness.py --runs 5 --workloads skewed_hot
    python3 perfbench/steadiness.py --save a.json         # keep the medians
    python3 perfbench/steadiness.py --compare a.json      # second set vs first

For each metric it prints the median, the quartiles (statistics.quantiles,
n=4), and the spread (Q3 - Q1) / median against the metric's bound from
BENCHMARK.json; a spread above a third of the bound is flagged "wide", one
above the bound "FAIL".  Each run measures BENCHMARK.json's run_seconds.
With --compare, each median is also checked against the saved set's: a
move of more than the bound either way is "FAIL" (the sign in the report
is + for worse), as is any change in the failed share.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before = {}
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)

    summary, bad = {}, 0
    for wl in args.workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                print(f"{wl} seed {seed}: exit {r.returncode}\n{r.stderr}")
                return 1
            res = json.loads(r.stdout.strip().splitlines()[-1])
            shares.add((res["failed"], res["attempted"]) if res["failed"]
                       else 0)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
        summary[wl] = {"failed_shares": sorted(map(str, shares)),
                       "medians": {}}
        print(f"\n{wl}: {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>7} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            flag = ("FAIL" if spread > bound else
                    "wide" if spread > bound / 3 else "")
            if wl in before:
                old = before[wl]["medians"][name]
                worse = ((med - old) / old if bounds[name]["better"] == "lower"
                         else (old - med) / old)
                if abs(worse) > bound:
                    flag += f" FAIL vs saved ({worse:+.3f})"
            bad += "FAIL" in flag
            summary[wl]["medians"][name] = med
            print(f"  {name:<28} {med:>14.4f} {q1:>14.4f} {q3:>14.4f}"
                  f" {spread:>7.3f} {bound:>6.2f} {flag}")
        if len(shares) > 1 or (wl in before and
                               before[wl]["failed_shares"] !=
                               summary[wl]["failed_shares"]):
            print(f"  failed share differs between runs: {shares}")
            bad += 1
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
