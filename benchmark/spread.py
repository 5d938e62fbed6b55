#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver measures it.

Runs each workload of BENCHMARK.json once per seed (ten seeds by default)
with tracing off and prints, per workload and metric, the median over the
seeds and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound. A benchmark is steady when every spread except `setup_s`'s
is below a third of its bound.

    python3 benchmark/spread.py [--seeds 10] [--first-seed 1] [--workload W]...
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in contract["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = contract["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in contract["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"{workload:<20} {m['name']:<18} median {median:>16.6f} {m['unit']:<12} "
                  f"spread {spread * 100:6.2f}% of bound {m['bound'] * 100:4.0f}% = {share:5.2f}",
                  flush=True)
    print(f"widest spread / bound, setup_s aside: {worst:.2f} (steady below 0.33)")


if __name__ == "__main__":
    main()
