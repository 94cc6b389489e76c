#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload compile_suite|simulate_suite|serve_routed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (which compiles the
program's libraries from src/) into .bench_build/perfbench; later runs
only re-check that build. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Run it from
anywhere inside a checkout: it works from the checkout's root, where the
benchmark keeps its sockets (.bench_sock/) and traces (.bench_out/).
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources at src/; run from a full checkout",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_quiet(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "--target", target, "--parallel", jobs]) == 0


def main(argv):
    os.chdir(ROOT)
    if argv == ["--self-test"]:
        if not build("tmsbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "tmsbench_selftest")]).returncode
    if not build("tmsbench"):
        return 1
    return subprocess.run([os.path.join(BUILD, "tmsbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
