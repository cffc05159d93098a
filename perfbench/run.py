#!/usr/bin/env python3
"""Builds and runs the end-to-end Dsms benchmark.

    python3 perfbench/run.py --workload filter|join|migrate --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
compiles the engine libraries and the benchmark binary
(perfbench/e2e_bench.cc) into .bench_build/ with CMake (Release); later
calls only rebuild what changed.
The binary's stdout is passed through; its last line is the JSON result.
Any extra arguments (--scale tiny, --corrupt-drop-one, --dump-inputs FILE)
go to the binary unchanged. Exits non-zero, without a result line, when the
build fails or the binary's output is not a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return proc.returncode == 0


def configured_for_this_tree():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build():
    """Configures (once per tree) and builds the binary. True on success."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no engine sources at {os.path.join(ROOT, 'src')}")
        return False
    if not configured_for_this_tree():
        shutil.rmtree(BUILD, ignore_errors=True)
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", BUILD, "--target", "e2e_bench",
                       "-j", jobs], BUILD_TIMEOUT_S)


def is_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (isinstance(doc, dict) and
            set(doc) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["filter", "join", "migrate"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args, extra = parser.parse_known_args()

    if not build():
        log("build failed")
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", os.path.join(BUILD, "state")] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary timed out after {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if "--dump-inputs" in extra:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    if not lines or not is_result(lines[-1]):
        sys.stdout.write(proc.stdout)
        log(f"benchmark binary exited {proc.returncode} without a result line")
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
