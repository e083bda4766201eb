#!/usr/bin/env python3
"""Builds and runs the stream-monitor benchmark.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 runs perfbench_e2e and prints the end-to-end metrics; --trace 1
runs perfbench_trace and prints the per-layer metrics. Each run builds only
the runner it needs, from the checkout's own src/ tree, into the directory
named by CARGO_TARGET_DIR (default .bench_build). Build output goes to
standard error; the runner's standard output is passed through, and its last
line is the result object. The exit code is the runner's, or 2 when the
build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Generous, but well inside the limit of a run: the runners stop themselves
# after --seconds plus their untimed checks.
RUN_TIMEOUT_S = 170


def build(target):
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    binary = build("perfbench_trace" if args.trace else "perfbench_e2e")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    sys.stdout.flush()
    # A SIGTERM to this script must not leave the runner running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % binary, file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
