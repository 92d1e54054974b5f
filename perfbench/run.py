#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the simulator library from src/ plus the
perfbench program) into the build directory named by CARGO_TARGET_DIR, or
.bench_build when unset, then runs the program with the given arguments.
Build output goes to stderr, so the program's JSON result stays the last
line of stdout. Exits non-zero without a result when the simulator
sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hh")):
        fail("no simulator sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (step[:2], err))
        if done.returncode != 0:
            fail("build step %s exited %d" % (step[:2], done.returncode))
    return os.path.join(build_dir, "perfbench")


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Budgets and worker counts must not follow the caller's environment.
    env = {k: v for k, v in os.environ.items()
           if k not in ("FUSE_FAST", "FUSE_THREADS")}
    binary = build(build_dir, env)

    if "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args[:-1] else "unknown"
        seed = args[args.index("--seed") + 1] \
            if "--seed" in args[:-1] else "1"
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(trace_dir, "%s-seed%s.json" % (workload, seed))]
    try:
        done = subprocess.run([binary] + args, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
