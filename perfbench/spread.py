#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and quartile spread (IQR / median), the figure BENCHMARK.json's
bounds are checked against.

    python3 perfbench/spread.py --workload live-hd-int8 --seeds 1 2 3 4 5

Run from the repository root; the benchmark is built with cargo first.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        t = time.time()
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        res = subprocess.run(cmd, capture_output=True, text=True)
        if res.returncode != 0:
            sys.exit(f"seed {seed}: exit {res.returncode}\n{res.stderr}")
        line = json.loads(res.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.time() - t:.1f}s correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}", flush=True)
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:28} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        print("    " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()
