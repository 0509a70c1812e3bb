#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
prints for every metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--seconds S] [--out runs.jsonl] [workload ...]

Run it from the repository root. A spread under a third of the bound is
steady; "wide" marks one that is not. With --trace 1 the per-layer
metrics are summarised instead (they have no bound).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("%s failed (exit %d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="append every result line to this file")
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = open(args.out, "a") if args.out else None
    for w in args.workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(w, seed, args.seconds, args.trace)
            results.append(r)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace, "result": r}) + "\n")
                out.flush()
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, attempted %s, failed share %s, correct %s" % (
            w, len(results), sorted({r["attempted"] for r in results}), shares,
            all(r["correct"] for r in results)))
        print("  %-24s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for d in defs:
            vals = [r["metrics"][d["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = d.get("bound")
            mark = ""
            if bound is not None:
                mark = "%7.3f%s" % (bound, "" if spread <= bound / 3 else "  wide")
            print("  %-24s %12.4f %12.4f %12.4f %8.4f %s" % (d["name"], med, q1, q3, spread, mark))
    if out:
        out.close()


if __name__ == "__main__":
    main()
