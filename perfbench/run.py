#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is pingpong, firehose, stack-lossy or all. "all" runs each workload
in a process of its own, one after another, and merges their results
with the metric names prefixed by the workload's. The report goes to
standard output; its last line is the JSON result. If the build fails
(for instance in a directory holding only the benchmark), this exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["pingpong", "firehose", "stack-lossy"]


def run_one(args):
    """Run main.exe; return its exit code and its last output line."""
    with subprocess.Popen([EXE, *args], stdout=subprocess.PIPE, text=True) as p:
        try:
            out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1, ""
    lines = out.splitlines() or [""]
    for line in lines[:-1]:
        print(line)
    return p.returncode, lines[-1]


def run_all(args):
    i = args.index("--workload")
    results = []
    for w in WORKLOADS:
        code, last = run_one(args[:i + 1] + [w] + args[i + 2:])
        if code not in (0, 1) or not last:
            return code or 1
        results.append((w, json.loads(last)))
    merged = {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}.{n}": m for w, r in results for n, m in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main():
    try:
        build = subprocess.run(
            # No shared cache: the build stays inside the checkout.
            ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        return run_all(args)
    code, last = run_one(args)
    if last:
        print(last)
    return code


if __name__ == "__main__":
    sys.exit(main())
