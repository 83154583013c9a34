#!/usr/bin/env python3
"""Steadiness report: the evidence for BENCHMARK.json's bounds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads chat,...]
                                [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per seed for each workload (one seed per run,
as the regression check does) and prints, per metric, the median, the
first and third quartiles (statistics.quantiles, n=4) and the quartile
spread as a share of the median. For end-to-end metrics it also prints the
bound and whether the spread stays within it, and within a third of it.
Run from the root of the checkout. --out saves every run's result object
as JSON lines.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s" %
                         (workload, seed, r.returncode, r.stdout[-3000:]))
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(args.out, "w") if args.out else None
    worst = 0.0
    for wl in workloads:
        values, walls = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, wall = run_once(wl, seed, bench["run_seconds"], args.trace)
            walls.append(wall)
            if out:
                out.write(json.dumps({"workload": wl, "seed": seed, "wall_s": wall,
                                      "result": res}) + "\n")
                out.flush()
            if not res["correct"]:
                raise SystemExit("%s seed %d: incorrect result" % (wl, seed))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("\n== %s: %d runs, wall per run median %.1f s (max %.1f s)" %
              (wl, args.runs, statistics.median(walls), max(walls)))
        print("%-34s %12s %12s %12s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
            verdict, bound = "", bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                verdict = ("ok" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "TOO NOISY")
            print("%-34s %12.6g %12.6g %12.6g %8.4f %6s %s" %
                  (name, med, q1, q3, spread, "" if bound is None else bound, verdict))
    if out:
        out.close()
    print("\nworst spread / bound over end-to-end metrics (setup_s excluded): %.3f" % worst)
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
