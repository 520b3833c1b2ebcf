#!/usr/bin/env python3
"""Builds the lce library and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 lcebench/run.py --workload serve-mscn --seed 1 --seconds 10 --trace 0
    python3 lcebench/run.py --selftest      # build and run the helper tests

The build goes to .bench_build/lcebench and is reused by later runs. The
workload runs with every LCE_* variable removed from the environment, so a
run measures the library's defaults; --trace 1 adds LCE_METRICS=1 for the
library's phase and exec counters. The last line printed is the benchmark's
JSON result; build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lcebench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("lcebench: no src/ next to lcebench/; run from a full checkout",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def clean_env(trace):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCE_")}
    if trace:
        env["LCE_METRICS"] = "1"
    return env


def main(argv):
    if argv == ["--selftest"]:
        if not build(["lcebench_test"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "lcebench_test")],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    if not build(["lcebench"]):
        return 1
    try:
        done = subprocess.run([os.path.join(BUILD, "lcebench")] + argv,
                              cwd=ROOT, env=clean_env(trace),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lcebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
