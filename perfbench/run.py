#!/usr/bin/env python3
"""Datapath benchmark entry point.

Usage (from the repository root):
    python3 perfbench/run.py --workload p2p_64b --seed 1 --seconds 32 --trace 0

Builds perfbench/ (which compiles the repository's src/ into
.bench_build/perfbench), runs the helper self-test, then runs one
workload in its own process and prints its report. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the spans of the traced half are written to
.bench_build/traces/<workload>.spans.tsv.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("p2p_64b", "nsx_imix", "conn_churn")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/CMakeLists.txt under {ROOT}: the benchmark needs the full source tree")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", BUILD, "-j", jobs], stdout=log,
                           stderr=subprocess.STDOUT) != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    if subprocess.call([os.path.join(BUILD, "perfbench_selftest")]) != 0:
        fail("helper self-test failed")

    cmd = [os.path.join(BUILD, "perfbench_workload"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}.spans.tsv")]
    # Measured with the default vector spine.
    env = {k: v for k, v in os.environ.items() if k != "OVSX_SCALAR_SPINE"}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"workload process exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("workload process printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["attempted"] < 1:
        fail(f"malformed result: {lines[-1]}")
    for line in lines[:-1]:
        print(line)
    print(f"run_wall_s {time.monotonic() - start:.3f}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
