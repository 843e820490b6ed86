#!/usr/bin/env python3
"""End-to-end solve benchmark of graphene-ipu: builds bench_e2e, runs one workload.

    python3 bench_e2e/run.py --workload timestep --seed 1 --seconds 10 --trace 0

The first call configures and builds this directory's CMake project (which
compiles ../src) into .bench_build/ at the repository root; later calls only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's result object. See README.md in this directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("timestep", "cold-sweep", "service-open", "mpir-ilu-pod")
# A run must end within 180 s; the build check before it takes a few.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds bench_e2e; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("bench_e2e: the graphene sources (../src) are missing; "
                 "run from a full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    command = [build(), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
