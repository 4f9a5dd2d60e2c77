#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with different seeds and
prints every end-to-end metric's median, quartiles and spread (IQR ÷
median) against its bound in BENCHMARK.json, plus the failed-operation
share of every run.

    python3 nsbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
                              [--seconds S] [--out results.json]

Run from the repository root. A spread at or under a third of its bound
prints "ok"; over the bound prints "OVER". `setup_s` has no spread gate
(only its median is compared between sets), so it prints "-".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["stamp"] if len(lines) > 1 else {}
    if not result["correct"] or stamp.get("problems"):
        print(f"  problems: {stamp.get('problems')}", flush=True)
    if stamp.get("failures"):
        print(f"  failures: {stamp['failures']}", flush=True)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write every run's result to this JSON file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    everything = {}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds)
            results.append(r)
            share = r["failed"] / r["attempted"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} share={share:.6f} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
        everything[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            steady = False
        print(f"{workload}: failed shares {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3, s = spread(values)
            if name == "setup_s":
                verdict = "-"
            elif s <= bound / 3:
                verdict = "ok"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER"
                steady = False
            print(f"  {name:20s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {s:.4f}  bound {bound}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(everything, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
