#!/usr/bin/env python3
"""Steadiness check: run each workload N times, on seeds 1..N, for
BENCHMARK.json's run_seconds each, and report, for every end-to-end
metric, the median, the quartiles, the quartile spread as a share of
the median, and the max/min ratio, beside the bound BENCHMARK.json
fixes for it.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--out perfbench/steadiness.json]

A metric is steady when its spread is below a third of its bound. The
pooled host speed each run prints, which BENCHMARK.json lists as an
unbounded per-layer metric, is recorded beside them without a verdict.
The evidence is written as JSON to --out. Exits 1 if a run fails or a
metric is not steady.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "system": platform.platform()}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"steady: {workload} seed {seed} failed (exit {out.returncode})")
    result = json.loads(lines[-1])
    host = re.search(r"host msgs/s over reps: pooled (\d+)", out.stdout)
    if not host:
        raise SystemExit(f"steady: {workload} seed {seed} printed no host speed")
    result["host_msgs_per_s"] = float(host.group(1))
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default="perfbench/steadiness.json")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    report = {"machine": machine(), "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    steady = True
    for w in names:
        runs = []
        for s in seeds:
            r = run_once(w, s, seconds)
            if not r["correct"] or r["failed"]:
                steady = False
            runs.append(r)
            print(f"{w} seed {s}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        rows = {}
        print(f"\n{w}: {'metric':24s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'max/min':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            v = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady = steady and ok
            rows[name] = {"values": v, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "max_over_min": max(v) / min(v),
                          "bound": bound, "steady": ok}
            print(f"{w}: {name:24s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {max(v) / min(v):8.4f} {bound:6.2f}"
                  f"{'' if ok else '  NOT STEADY'}")
        v = [r["host_msgs_per_s"] for r in runs]
        q1, med, q3 = statistics.quantiles(v, n=4)
        rows["host_msgs_per_s"] = {"values": v, "median": med, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / med,
                                   "max_over_min": max(v) / min(v), "bound": None}
        print(f"{w}: {'host_msgs_per_s':24s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{(q3 - q1) / med:8.4f} {max(v) / min(v):8.4f}  (no bound)")
        report["workloads"][w] = rows
        print()
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
