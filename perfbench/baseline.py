#!/usr/bin/env python3
"""Records a baseline for every workload in BENCHMARK.json.

Runs the benchmark command untraced once per seed (seeds 1-10) and
traced twice on seed 1, then writes perfbench/baseline.json with, per
workload and metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (IQR / median).
Traced metrics record both runs' values and whether every count
repeated exactly.

Run from the repository root:

    python3 perfbench/baseline.py
"""

import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
TRACE_SEED = 1
OUT = "perfbench/baseline.json"


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong answers\n{out.stdout[-2000:]}")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": list(SEEDS),
              "workloads": {}}
    for w in workloads:
        values = {}
        for seed in SEEDS:
            t0 = time.time()
            result = run(bench["command"], w, seed, seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {time.time() - t0:.1f} s", file=sys.stderr)
        end_to_end = {name: summary(v) for name, v in values.items()}
        for name, s in end_to_end.items():
            flag = "" if s["spread"] <= bounds[name] else "  OVER BOUND"
            print(f"{w:12} {name:12} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" (bound {bounds[name]}){flag}")
        traced = [run(bench["command"], w, TRACE_SEED, seconds, 1) for _ in range(2)]
        per_layer = {}
        for name, m in traced[0]["metrics"].items():
            pair = [traced[0]["metrics"][name]["value"], traced[1]["metrics"][name]["value"]]
            per_layer[name] = {"unit": m["unit"], "values": pair}
        counts_repeat = all(v["values"][0] == v["values"][1]
                            for name, v in per_layer.items()
                            if v["unit"] in ("count", "KiB") or name.endswith("hit_ratio"))
        print(f"{w:12} traced counts repeat exactly: {counts_repeat}")
        report["workloads"][w] = {"end_to_end": end_to_end, "per_layer": per_layer,
                                  "counts_repeat": counts_repeat}
    with open(OUT, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
