#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and summarizes the metrics.

    python3 jvbench/steady.py --runs 10 --seconds 20 [--workloads a,b] [--trace 1]

Run from the repository root. Each run uses its own seed (first-seed,
first-seed + 1, ...) and runs one after another, never concurrently. For every
metric the script prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median; with
--trace 0 it also prints each end-to-end metric's bound from BENCHMARK.json and
flags a spread above a third of it. The raw results are written as JSON to
jvbench_results/ (ignored by git).
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


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(workload, results, bounds):
    print("\n## %s (%d runs)" % (workload, len(results)))
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    print("correct in every run: %s; failed share: %s; wall s: %.1f-%.1f" %
          (correct, sorted(shares), min(r["wall_s"] for r in results),
           max(r["wall_s"] for r in results)))
    print("| metric | unit | median | Q1 | Q3 | spread | bound | ok |")
    print("|---|---|---|---|---|---|---|---|")
    worst_ok = correct and len(shares) == 1
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict, bound_text = "", ""
        else:
            # setup_s is judged on its median only; its spread is reported.
            ok = name == "setup_s" or spread < bound / 3
            worst_ok &= ok
            verdict, bound_text = ("yes" if ok else "NO"), "%.3f" % bound
        print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %s | %s |" %
              (name, first["unit"], median, q1, q3, spread, bound_text, verdict))
    return worst_ok


def main():
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {} if args.trace else {
        m["name"]: m["bound"] for m in contract["end_to_end"]}
    out_dir = os.path.join(ROOT, "jvbench_results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "steady_%s_trace%d.json" %
                       (time.strftime("%Y%m%d_%H%M%S"), args.trace))
    all_ok = True
    raw = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print("%s seed %d: %.1f s" % (workload, seed, results[-1]["wall_s"]),
                  file=sys.stderr, flush=True)
        raw[workload] = results
        all_ok &= summarize(workload, results, bounds)
        sys.stdout.flush()
        with open(out, "w") as f:
            json.dump(raw, f, indent=1)

    print("\nraw results: %s" % os.path.relpath(out, ROOT))
    print("every spread within a third of its bound: %s" % all_ok)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
