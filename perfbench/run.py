#!/usr/bin/env python3
"""Builds the PXML benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload engine_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, and every file a run writes goes under <build>/out. The
last line of standard output is the result JSON printed by the pxbench
binary; build logs go to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_pipeline", "engine_read")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_sha():
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for a commit id)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found; cannot build",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "pxbench",
                  "pxbench_test", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    run_dir = os.path.join(out, "out")
    os.makedirs(run_dir, exist_ok=True)
    if args.selftest:
        cmd = [os.path.join(out, "pxbench_test"), "--out-dir", run_dir]
    else:
        cmd = [os.path.join(out, "pxbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", run_dir,
               "--source-sha", source_sha()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
