#!/usr/bin/env python3
"""Builds and runs originbench, the repository's end-to-end benchmark.

    python3 originbench/run.py --workload grid|grid_dist|sweep|service \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark is a CMake package
of its own (originbench/CMakeLists.txt) over the library sources in src/;
it is configured and built on first use into $CARGO_TARGET_DIR (default
.bench_build), optimized, and refuses to run a non-optimized build. Build
output goes to stderr; stdout carries only the benchmark's own lines, the
last of which is the JSON result.
"""
import os
import re
import shutil
import subprocess
import sys

OPTIMIZED = ("Release", "RelWithDebInfo", "MinSizeRel")
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("originbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "originbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to originbench/")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        command = ["cmake", "-S", source, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.call(command, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    with open(cache) as handle:
        match = re.search(r"^CMAKE_BUILD_TYPE:[^=]*=(.*)$", handle.read(),
                          re.MULTILINE)
    build_type = match.group(1).strip() if match else ""
    if build_type not in OPTIMIZED:
        fail("refusing to benchmark a CMAKE_BUILD_TYPE='%s' build (need one "
             "of %s)" % (build_type, ", ".join(OPTIMIZED)))
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "originbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    binary = build(root, os.path.join(build_dir, "originbench"))
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:], cwd=root)


if __name__ == "__main__":
    sys.exit(main())
