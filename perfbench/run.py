#!/usr/bin/env python3
"""Build and run the measurement-system benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kz-full --seed 1 --seconds 20 --trace 0

The first call configures and builds the cendevice library and the
perfbench binary into .bench_build/perfbench (Release); later calls only
re-check the build. The binary's last line of standard output is the JSON
result; build logs go to standard error. Exits non-zero without a result
when the checkout holds no cendevice sources or the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("kz-full", "longit-churn", "world-1m")
BUILD_JOBS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no cendevice sources under {root}/src; run from a full checkout")

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    work_dir = os.path.join(root, ".bench_build", "work")
    os.makedirs(work_dir, exist_ok=True)

    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=log, stderr=log) != 0:
            fail("cmake configure failed")
    build = ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", BUILD_JOBS]
    if subprocess.call(build, stdout=log, stderr=log) != 0:
        fail("build failed")

    spans = os.path.join(work_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    binary = os.path.join(build_dir, "perfbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", work_dir, "--spans", spans]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
