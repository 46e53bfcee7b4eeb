#!/usr/bin/env python3
"""Measures how steady the benchmark is across seeds.

Usage, from the repository root:

    python3 perfbench/spread.py [--seeds 1,2,...] [--trace 0|1] [workload ...]

Runs `perfbench/run.py` once per (workload, seed) with the run length from
BENCHMARK.json, then prints each metric's median, quartiles and spread:
the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`). For end-to-end metrics the
spread is compared with the metric's bound. Exits non-zero if a run fails
or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed (exit {out.returncode})")
                print(out.stdout[-2000:], out.stderr[-2000:])
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({len(seeds)} seeds)")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == "0":
                verdict = f" bound {bound}"
                if not spread <= bound:
                    verdict += " EXCEEDED"
                    ok = False
            print(f"  {name:32} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{verdict}")
            print("    values " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
