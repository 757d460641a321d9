#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Runs every workload of BENCHMARK.json --runs times, each run with its own
seed, and prints for each end-to-end metric its median, quartiles and
spread, the distance between the quartiles as a share of the median
(statistics.quantiles(values, n=4)). A spread above a tenth is flagged,
and so is one above the metric's bound in BENCHMARK.json (setup_s is
judged by its median only, so its spread is shown but not held to the
bound). With --trace it then makes one traced run per workload and prints
its per-layer metrics and the tracing overhead: traced ops_per_s against
the untraced median, with both numbers given.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads ingest-follow --seed 100
    python3 perfbench/steady.py --runs 10 --trace

Raw results are saved as JSON under .bench_build/.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    res["stdout"] = p.stdout
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    raw = {}
    worst = []
    for w in names:
        runs = []
        for i in range(args.runs):
            r = run_once(bench["command"], w, args.seed + i, seconds, 0)
            print(f"{w} seed {args.seed + i}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"({r['wall_s']:.1f} s)", flush=True)
            runs.append(r)
        raw[w] = {"runs": [{k: v for k, v in r.items() if k != "stdout"} for r in runs]}
        print(f"\n{w}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        print(f"  {'metric':<16} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, spec in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flags = []
            if spread > 0.1:
                flags.append("SPREAD>0.1")
            if name != "setup_s" and spread > spec["bound"]:
                flags.append("OVER-BOUND")
            if name != "setup_s":
                worst.append((spread / spec["bound"], w, name))
            print(f"  {name:<16} {spec['unit']:<6} {med:14.6f} {q1:14.6f} {q3:14.6f} {spread:8.4f} {spec['bound']:6.2f} {' '.join(flags)}")
        if not all(r["correct"] for r in runs):
            print(f"  INCORRECT runs: {[args.seed + i for i, r in enumerate(runs) if not r['correct']]}")

        if args.trace:
            t = run_once(bench["command"], w, args.seed, seconds, 1)
            raw[w]["traced"] = {k: v for k, v in t.items() if k != "stdout"}
            untraced = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs)
            traced = t["metrics"]["trace.ops_per_s"]["value"]
            print(f"\n{w} traced run (seed {args.seed}):")
            for line in t["stdout"].splitlines():
                if not line.startswith("{"):
                    print("  " + line)
            print(f"  tracing overhead: {1 - traced / untraced:+.4f} "
                  f"(traced ops_per_s {traced:.1f} / untraced median {untraced:.1f} over {args.runs} runs)")
        print(flush=True)

    worst.sort(reverse=True)
    if worst:
        share, w, name = worst[0]
        print(f"largest spread relative to its bound: {w} {name} at {share:.2f} of the bound")
    path = f".bench_build/steady-{int(time.time())}.json"
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"raw results in {path}")


if __name__ == "__main__":
    main()
