#!/usr/bin/env python3
"""Reduced-scale self-test of the freshness benchmark.

    python3 freshbench/selftest.py

For every workload, on a small graph with a fixed epoch count: two traced
runs with the same seed must pass their output checks and agree exactly on
the result digest, the epoch and delta counts, the attempted/failed counts
and every count metric; a run with another seed must pass its output checks
too. Exits non-zero on a failed run or a disagreement.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# (workload, epochs) at 2000 vertices; SSSP reads run beside the writer, so
# its attempted count is not fixed and is left out of the comparison.
CASES = (("pagerank-trickle", 40), ("pagerank-bulk", 10),
         ("sssp-2shard-replicated", 25))
COUNTS = ("core.map_instances", "core.reduced_keys", "core.propagated_pairs",
          "mr.shuffle_bytes", "mrbg.io_reads", "mrbg.bytes_read")


def run(workload, seed, epochs):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1", "--epochs", str(epochs),
           "--vertices", "2000"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    hosts = [json.loads(l)["host"] for l in lines if l.startswith('{"host"')]
    if done.returncode != 0 or not hosts:
        why = hosts[0]["why"] if hosts else "no result"
        sys.exit(f"FAIL {workload} seed {seed}: exit {done.returncode}, {why}")
    return hosts[0], json.loads(lines[-1])


def main():
    ok = True
    for workload, epochs in CASES:
        runs = [run(workload, seed, epochs) for seed in (7, 7, 8)]
        (a, ra), (b, rb) = runs[0], runs[1]
        pairs = {k: (a[k], b[k]) for k in ("digest", "epochs",
                                            "deltas_applied")}
        pairs.update({k: (ra["metrics"][k]["value"], rb["metrics"][k]["value"])
                      for k in COUNTS})
        if not workload.startswith("sssp"):
            pairs["attempted"] = (ra["attempted"], rb["attempted"])
        differ = {k: v for k, v in pairs.items() if v[0] != v[1]}
        if differ:
            print(f"FAIL {workload}: same seed, different counts or results: "
                  f"{json.dumps(differ)}")
            ok = False
        else:
            print(f"ok   {workload}: digest {a['digest']}, error "
                  f"{a['output_error']:.6g}; seed 8 error "
                  f"{runs[2][0]['output_error']:.6g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
