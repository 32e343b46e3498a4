#!/usr/bin/env python3
"""Run perfbench on several seeds and report each end-to-end metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload rag-hnsw --seeds 1-10

For every end-to-end metric in BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound. A benchmark is steady when every spread but setup_s's is below a
third of its bound. Raw results go to $CARGO_TARGET_DIR (default
.bench_build)/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(s):
    out = []
    for part in s.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        if proc.returncode != 0:
            sys.exit("seed %d: run failed with code %d" % (seed, proc.returncode))
        res = json.loads(proc.stdout.decode().rstrip("\n").split("\n")[-1])
        runs.append({"seed": seed, "result": res})
        vals = " ".join("%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())
        print("%s seed %d correct=%s failed=%d %s" % (time.strftime("%H:%M:%S"), seed, res["correct"], res["failed"], vals), flush=True)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "spread-%s.json" % args.workload), "w") as f:
        json.dump(runs, f, indent=1)

    print("%-20s %12s %12s %12s %8s %8s %s" % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for m in bench["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        print("%-20s %12.6g %12.6g %12.6g %8.4f %8.4f %s" % (m["name"], med, q1, q3, spread, m["bound"], verdict))


if __name__ == "__main__":
    main()
