#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, per end-to-end metric, the median of the runs and
the distance between the first and third quartile as a share of the
median, next to the metric's bound. Run it from the repository root:

    python3 daisybench/spread.py --seeds 10
    python3 daisybench/spread.py --workloads code_thrash --seeds 5 \
        --command daisybench/target/release/daisybench

A spread under a third of the bound is steady. `--out FILE` keeps the
raw result lines for comparing two sets of runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), [l for l in lines[:-1] if l.startswith("digest ")]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--command", nargs="*", help="override the benchmark command")
    ap.add_argument("--out", help="write every result line to this JSON file")
    a = ap.parse_args()

    bench = json.load(open(a.benchmark))
    command = a.command or bench["command"]
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if a.trace else "end_to_end"]
    raw = {}
    steady = True
    for wl in workloads:
        results, digests = [], set()
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            r, d = run_once(command, wl, seed, bench["run_seconds"], a.trace)
            results.append(r)
            digests.add(tuple(d))
            if not r["correct"] or r["failed"]:
                steady = False
                print(f"{wl} seed {seed}: incorrect ({r['failed']}/{r['attempted']} failed)")
        raw[wl] = results
        if len(digests) > 1:
            steady = False
            print(f"{wl}: simulated counters differ across seeds")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(vals)
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and s >= bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"{wl:13} {m['name']:28} median {statistics.median(vals):<14.6g} "
                  f"spread {s:.4f}" + (f" bound {bound}" if bound is not None else "") + flag)
    if a.out:
        json.dump(raw, open(a.out, "w"), indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
