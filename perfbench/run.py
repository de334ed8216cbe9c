#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (described in BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ -- and through it the venn_core library, from the sources
in this checkout -- with CMake into .bench_build/perfbench, then runs
venn_perfbench in a private working directory under .bench_build (the daemon
workload puts its socket and journals there) and passes its output through.
The last stdout line is the result JSON. --trace 1 also writes the run's spans
as Chrome trace-event JSON to .bench_build/traces/<workload>-seed<N>.json.

Extra flags go to venn_perfbench unchanged: --tiny (self-test shapes),
--inject-reject (one command the daemon must refuse), --trace-out PATH.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "venn_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds venn_perfbench; build output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "venn_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    build()
    work = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1 and "--trace-out" not in extra:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    cmd += extra
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: venn_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: venn_perfbench failed (exit %d)" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
