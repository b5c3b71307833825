#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the benchmark driver)
under .bench_build/perfbench; later calls reuse that build. The metric
self-tests run before every measurement. The serve_durable settings
(rates, job counts, p99 latency limit) come from perfbench/spec.json.
The benchmark's last stdout line is its JSON result; it exits non-zero
when a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("gemm_stream", "conv_hostbound", "serve_durable")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the driver and the self-tests."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
           "opac_perfbench", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def selftest():
    exe = os.path.join(BUILD, "perfbench_selftest")
    if subprocess.run([exe, "--gtest_brief=1"],
                      stdout=sys.stderr).returncode != 0:
        fail("metric self-tests failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build()
    selftest()

    with open(os.path.join(HERE, "spec.json")) as f:
        serve = json.load(f)["serve_durable"]
    work = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [os.path.join(BUILD, "opac_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.workload == "serve_durable":
        phases = ("below", "near", "above")
        cmd += ["--rates",
                ",".join(str(serve["rates_jobs_per_mcyc"][p])
                         for p in phases),
                "--jobs", ",".join(str(serve["jobs"][p]) for p in phases),
                "--latency-limit", str(serve["p99_latency_limit_cyc"])]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = 124
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
