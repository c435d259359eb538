#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: svc_evict, svc_async, tune_stream. Run from anywhere;
the script works from the repository root. It builds the `perfbench` binary
from source into .bench_build/cmake (configure once, then incremental), runs
one workload in a fresh .bench_build/work-<pid> directory (journals and the
daemon's socket live there, on the repository's filesystem), removes that
directory, and passes the binary's standard output through. The last line
of that output is the JSON result.

Exit status: the binary's (0 only when every correctness check passed);
1 when the build fails or the run exceeds its time limit; 2 on bad
arguments or when the repository sources are missing.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("svc_evict", "svc_async", "tune_stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in 1..120")
    return args


def run_logged(cmd, deadline):
    """Run a build step quietly; on failure show its output and exit 1."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}", 1)


def build(root):
    build_dir = os.path.join(".bench_build", "cmake")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, deadline)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                "--parallel", jobs], deadline)
    return os.path.join(root, build_dir, "perfbench")


def stop_on_signal(signum, _frame):
    # Unwind through main's `finally`, which kills and reaps the benchmark
    # process and removes its work directory.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    signal.signal(signal.SIGINT, stop_on_signal)
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(needed):
            fail(f"repository sources missing: no {needed} under {root}", 2)
    binary = build(root)

    work_dir = os.path.join(".bench_build", f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    # Journals are fsync'd: write back what the build and earlier runs left
    # dirty, so that it does not stall this run's fsyncs.
    os.sync()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        os.sync()
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
