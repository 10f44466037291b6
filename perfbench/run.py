#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (a CMake package that pulls the library in
from the checkout, Release build) under .bench_build/, then runs one workload
and relays its output. The last line of standard output is the result JSON.
Build logs go to standard error. See perfbench/README.md.
"""
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(base, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))

    cmd = ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        print("perfbench: configure failed", file=sys.stderr)
        return 1
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(build_dir, "perfbench")
    with open(binary, "rb") as f:
        program = hashlib.sha256(f.read()).hexdigest()[:16]
    # Deterministic work counters are compared across runs of this exact
    # binary only: another program may legitimately do different work.
    state_dir = os.path.join(base, "state", program)
    work_dir = os.path.join(base, "run")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary] + sys.argv[1:] + ["--work-dir", work_dir, "--state-dir", state_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
