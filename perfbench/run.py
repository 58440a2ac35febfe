#!/usr/bin/env python3
"""Builds the CoDS benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt) that
compiles the library under src/ in Release mode into .bench_build/perfbench.
The first run builds it; later runs rebuild only what changed. The program's
output is passed through; its last line is the JSON result. A traced run
(--trace 1) also writes its benchmark-side spans to .bench_build/spans/.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
EXE = os.path.join(BUILD_DIR, "cods_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, output=""):
    if output:
        sys.stderr.write(output)
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(1)


def run_step(cmd, what):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(what + " timed out")
    if proc.returncode != 0:
        fail(what + " failed", proc.stdout)


def build():
    """Configures (once) and builds the benchmark; serialized by a lock."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = [os.path.join(BUILD_DIR, f)
                     for f in ("build.ninja", "Makefile")]
        if not any(os.path.exists(f) for f in generated):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_step(configure, "configure")
        jobs = str(min(4, os.cpu_count() or 1))
        run_step(["cmake", "--build", BUILD_DIR, "--target", "cods_perfbench",
                  "-j", jobs], "build")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            SPANS_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        fail("run timed out", out or "")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode, proc.stdout)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line", proc.stdout)
    if set(result) != RESULT_KEYS:
        fail("malformed result line", proc.stdout)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
