#!/usr/bin/env python3
"""Build the benchmark from the repository sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Extra arguments (--toy,
--corrupt CHECK) are passed through to the benchmark binary.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure and build the perfbench target; return the binary path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    # Configure once; the build step re-runs CMake when a list file
    # changes.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "none"


def src_digest():
    """SHA-1 over the library sources, identifying the code measured."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: no library sources beside perfbench/", file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [binary] + argv + [
        "--work-dir", os.path.join(build_dir, "work"),
        "--git-sha", git_sha(), "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
