#!/usr/bin/env python3
"""Steadiness check of the listrank90 end-to-end benchmark.

Runs each workload as two independent sets of reps (every rep with its
own seed, the two sets interleaved) and prints, per end-to-end metric, the
median, the quartiles and the spread (Q3 - Q1) / median of each set, set
against the metric's bound in BENCHMARK.json, the spread of both sets
pooled, and how far the second set's median moved from the first's in
the worse direction.

    python3 lr90bench/steady.py [--workloads tcp-snapshot,bulk-random] [--reps 10]

A metric is steady when the spread of the pooled runs stays below a third
of its bound (setup_s excepted: its spread is not gated) and the second
median is not worse than the first by more than the bound. Exits 1 when any
metric is not steady or any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout[-2000:] + res.stderr[-2000:])
        return None
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"] != 0:
        return None
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    for line in lines:
        if line.startswith("# cpu steal during the run:"):
            metrics["steal_s"] = float(line.split()[6])
    return metrics


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        seeds = json.load(f)["seeds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--reps", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=seeds["default"],
                    help="first seed; every run takes the next one")
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        sets = ([], [])
        seed = args.seed
        for _ in range(args.reps):
            for s in sets:
                m = run_once(workload, seed, args.seconds)
                seed += 1
                if m is None:
                    print(f"{workload}: run with seed {seed - 1} failed")
                    return 1
                s.append(m)
        print(f"\n{workload} ({args.reps} runs per set)")
        print(f"{'metric':26} {'bound':>6} {'median A':>12} {'spread A':>9} "
              f"{'median B':>12} {'spread B':>9} {'pooled':>7} {'B worse':>8}"
              "  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = spread([r[name] for r in sets[0]])
            b = spread([r[name] for r in sets[1]])
            pooled = spread([r[name] for r in sets[0] + sets[1]])
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b[0] - a[0]) / a[0]
            ok = worse <= bound
            if name != "setup_s":
                ok = ok and pooled[3] < bound / 3
            steady = steady and ok
            print(f"{name:26} {bound:6.3f} {a[0]:12.6g} {a[3]:9.4f} "
                  f"{b[0]:12.6g} {b[3]:9.4f} {pooled[3]:7.4f} {worse:8.4f}  "
                  f"{'ok' if ok else 'NOT STEADY'}")
            print(f"{'':26} {'':6} quartiles A [{a[1]:.6g}, {a[2]:.6g}]"
                  f"  B [{b[1]:.6g}, {b[2]:.6g}]")
        steal = [r.get("steal_s", 0.0) for r in sets[0] + sets[1]]
        print(f"cpu steal per run (s): {' '.join(f'{x:.1f}' for x in steal)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
