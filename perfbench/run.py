#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload csan_locked --seed 1 --seconds 30 --trace 0

Workloads: csan_locked, fix_racy, service_mix. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics (see README.md). The
first call configures and builds perfbench/ (the cssame library from src/
plus the perfbench program) in Release mode under .bench_build/, or under
$CARGO_TARGET_DIR when that is set; later calls only rebuild what changed.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. Exit status is nonzero, with no result line, when the
build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("csan_locked", "fix_racy", "service_mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "30", "--trace": "0"}
    if len(argv) % 2 != 0:
        fail("arguments come in --flag value pairs")
    for key, value in zip(argv[::2], argv[1::2]):
        if key not in opts:
            fail(f"unknown argument {key}")
        opts[key] = value
    if opts["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    for key in ("--seed", "--seconds"):
        if not opts[key].isdigit():
            fail(f"{key} takes a whole number")
    if int(opts["--seconds"]) < 1:
        fail("--seconds must be at least 1")
    if opts["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return opts


def run(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cssame sources next to perfbench/ (expected src/CMakeLists.txt)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]):
            fail("cmake configure failed")
    if not run(["cmake", "--build", build_dir, "-j4", "--target", "perfbench"]):
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    opts = parse_args(sys.argv[1:])
    binary = build()
    cmd = [binary]
    for key, value in opts.items():
        cmd += [key, value]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"run failed with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail("run printed no result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
