#!/usr/bin/env python3
"""Builds the deddb benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload <oltp_wire|update_pipeline|cdc_fanout>
                             --seed <n> --seconds <s> --trace <0|1> [--smoke]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; databases live in .bench_work and result records in
.bench_results. Build output goes to standard error, so the benchmark's
last line of standard output is its JSON result. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "deddb_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("benchmark build failed: " + " ".join(step))
    return os.path.join(build_dir, "deddb_perfbench")


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("deddb sources (src/) not found next to perfbench/; "
                 "run from a full checkout")
    binary = build()
    args = [binary] + sys.argv[1:] + [
        "--results", os.path.join(ROOT, ".bench_results"),
        "--work", os.path.join(ROOT, ".bench_work"),
        "--source", source_id(),
    ]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
