#!/usr/bin/env python3
"""Interleaved parent/change comparison with the freshness benchmark.

    python3 freshbench/compare.py --parent DIR --change DIR \
        --workload W [--seeds 1-10] [--seconds 30]

DIR is the root of a checkout of each commit. For each seed the two sides
run back to back, and the side that runs first alternates from seed to seed,
so host drift (steal, thermal, neighbours) lands on both sides alike. Prints,
per end-to-end metric, each side's median and quartiles, the share of pairs
the change wins, and each run's steal %.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

LOWER_IS_BETTER = {"setup_s", "freshness_p50_ms", "freshness_p90_ms",
                   "cpu_ms_per_update", "peak_rss_mb"}


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("freshbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: seed {seed} failed (exit {done.returncode})")
    host = next(json.loads(l)["host"] for l in lines if l.startswith('{"host"'))
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return metrics, host["steal_pct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()

    sides = {"parent": [], "change": []}
    for i, seed in enumerate(seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            metrics, steal = run(getattr(args, side), args.workload, seed,
                                 args.seconds)
            sides[side].append(metrics)
            print(f"seed {seed} {side:6s} steal {steal:5.2f}% " +
                  " ".join(f"{k}={v:.4g}" for k, v in sorted(metrics.items())),
                  flush=True)

    for name in sorted(sides["parent"][0]):
        p = [m[name] for m in sides["parent"]]
        c = [m[name] for m in sides["change"]]
        better = (lambda a, b: a < b) if name in LOWER_IS_BETTER else (
            lambda a, b: a > b)
        wins = sum(better(cv, pv) for pv, cv in zip(p, c))
        line = [name]
        for side, v in (("parent", p), ("change", c)):
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            line.append(f"{side} median {q[1]:.4g} [q1 {q[0]:.4g}, q3 {q[2]:.4g}]")
        line.append(f"change wins {wins}/{len(p)}")
        print(" | ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
