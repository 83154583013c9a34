#!/usr/bin/env python3
"""Builds and runs the serving benchmark from a source checkout.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The first run configures and builds
perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild incrementally. The build's statistics test
runs before every measurement. TSI_NUM_THREADS and TSI_SPMD_SLOTS are pinned
here and recorded in the host fingerprint the benchmark prints. The last
line of stdout is the result object; with --trace 1 the span trace is
written to <build dir>/perfbench-trace/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chat", "rag_disagg", "multiturn_prefix")
# Threads for the kernel pool and concurrently running simulated chips,
# chosen from measured run-to-run spread (README.md); never more than the
# host has.
PINNED_THREADS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "serve_bench", "stats_test"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_dir, "perfbench")
    if not build(build_dir):
        return 1
    test = subprocess.run([os.path.join(build_dir, "stats_test"), "--gtest_brief=1"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if test.returncode != 0:
        log(test.stdout[-4000:])
        log("perfbench: stats_test failed")
        return 1

    threads = max(1, min(PINNED_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, TSI_NUM_THREADS=str(threads), TSI_SPMD_SLOTS=str(threads))
    cmd = [os.path.join(build_dir, "serve_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "perfbench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, env=env, timeout=175)
    except subprocess.TimeoutExpired:
        log("perfbench: serve_bench timed out")
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
