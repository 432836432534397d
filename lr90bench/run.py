#!/usr/bin/env python3
"""Build and run the listrank90 end-to-end benchmark.

Run from the root of a listrank90 checkout:

    python3 lr90bench/run.py --workload bulk-random --seed 1 --seconds 20 --trace 0

The first run configures and builds the library from the checkout's own
sources together with the benchmark binary (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. The benchmark binary's output is passed through: provenance and
diagnostics as '#' lines, one 'metric' line per metric, and as the last
line one JSON object {correct, attempted, failed, metrics}. The exit code
is the binary's: non-zero on a wrong answer, a refused environment, a
failed build or a run that did not finish within the time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk-random", "tcp-snapshot", "out-of-core")
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def fail(msg):
    print(f"lr90bench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the library and benchmark sources, for provenance."""
    h = hashlib.sha256()
    for top in ("src", "lr90bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds; returns the benchmark binary's path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "lr90bench"])
    for cmd in steps:
        res = subprocess.run(cmd, capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "lr90bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no listrank90 sources next to {HERE}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "lr90bench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(build_dir, "scratch"),
           "--git-sha", f"{git_sha()}+src.{source_digest()}"]
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
