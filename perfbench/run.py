#!/usr/bin/env python3
"""Builds and runs the ConfErr campaign benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload typo-distinct --seed 1 --seconds 10 --trace 0

Workloads: typo-distinct, compound-stream, warm-rerun. The benchmark is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build at
the repository root). The last line of standard output is one JSON
object with the run's metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A traced run also writes its
spans to perfbench-spans-<workload>.jsonl in the build directory. The
exit code is not 0 when the build fails, the arguments are wrong, or
an output digest does not match the one recorded for the workload and
seed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def arg_value(argv, flag):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench",
    ]
    try:
        # Cargo's output goes to stderr: stdout carries only the result.
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = list(argv)
    workload = arg_value(args, "--workload")
    if arg_value(args, "--trace") == "1" and workload and "--trace-out" not in args:
        args += ["--trace-out", os.path.join(target, f"perfbench-spans-{workload}.jsonl")]
    binary = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
