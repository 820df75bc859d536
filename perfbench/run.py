#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/ (the sn40l library from src/ plus the
sn40l_bench harness) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the harness with the given
arguments. Build output goes to stderr, so the last line on stdout is
the harness's JSON result. Exits non-zero without a result if the build
fails (for instance when src/ is missing).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "sn40l_bench")


def tree_hash():
    """Content hash of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(build_dir))
    argv = [binary] + sys.argv[1:] + [
        "--commit", git_commit(), "--tree", tree_hash()]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
