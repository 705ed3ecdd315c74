#!/usr/bin/env python3
"""Builds and runs the treesched end-to-end benchmark (see README.md).

Run from the root of a treesched checkout:

    python3 e2ebench/run.py --workload hot-v3 --seed 1 --seconds 10 --trace 0

The first run configures and builds the repository's library and the
benchmark (Release) into the build directory: $CARGO_TARGET_DIR when set,
else .bench_build. Later runs rebuild only what changed. Build output goes
to stderr; stdout carries the benchmark's report, whose last line is one
JSON object {"correct", "attempted", "failed", "metrics"}. A traced run
(--trace 1) writes its spans to <build dir>/spans/.

    python3 e2ebench/run.py --self-test   # builds and runs e2ebench's tests
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
WORKLOADS = ("hot-v3", "cold-roster", "routed-text")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def git_revision():
    """The checkout's commit, read from .git without running git (which
    would search parent directories); "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_step(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("build timed out")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=remaining, check=False)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(targets):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a treesched checkout: %s is missing" % needed)
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_step(["cmake", "-S", BENCH_DIR, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"], deadline)
    jobs = str(max(1, os.cpu_count() or 1))
    run_step(["cmake", "--build", out, "-j", jobs] +
             [arg for t in targets for arg in ("--target", t)], deadline)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        out = build(["e2ebench_tests"])
        proc = subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"], cwd=ROOT, check=False)
        sys.exit(proc.returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build(["e2ebench"])
    cmd = [os.path.join(out, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--git-rev", git_revision()]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith('{"correct"'):
        # Never let a partial report pass for a result.
        sys.stderr.write(proc.stdout)
        fail("the benchmark exited with code %d" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
