#!/usr/bin/env python3
"""Build and run the closed-loop freshness benchmark.

    python3 freshbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary is built from this
checkout's sources (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; cluster state lives under .bench_work and is removed
when the run ends. Every line the binary prints is passed through; the last
one is the result object {correct, attempted, failed, metrics}. The exit
code is non-zero when the build fails, a run fails, or an output check
fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("pagerank-trickle", "pagerank-bulk", "sssp-2shard-replicated")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configure + build the benchmark; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "pipeline.h")):
        print("freshbench: no library sources under src/", file=sys.stderr)
        return None
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build_dir = os.path.join(build_dir, "freshbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"freshbench: build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "freshness_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Reduced-scale knobs for the self-test (selftest.py).
    ap.add_argument("--epochs", type=int, default=0)
    ap.add_argument("--vertices", type=int, default=10000)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("freshbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", work, "--epochs", str(args.epochs),
           "--vertices", str(args.vertices)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"freshbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("freshbench: the binary printed no result object",
              file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    if done.returncode != 0 or result["correct"] is not True:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
