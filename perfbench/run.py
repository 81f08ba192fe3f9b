#!/usr/bin/env python3
"""Build and run the canonical closed-loop benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tm1-dora --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the engine sources plus the benchmark) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the perfbench binary with a fresh data directory under the same build
root, wipes that directory afterwards, and checks that the binary's last
output line is the result object. Build output goes to stderr; stdout
carries the benchmark's report and, last, the JSON result. Exits non-zero,
printing no result, when the build, the run or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tm1-dora", "tpcb-durable", "tpcc-base", "tpcc-dora")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(src_dir, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = [
        ["cmake", "-S", str(src_dir), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4"],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {cmd[:2]} exited {r.returncode}")
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src_dir = Path(__file__).resolve().parent
    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(src_dir, target / "perfbench")

    # Private to this invocation, so a concurrent run cannot wipe it.
    data_dir = target / "perfbench-data" / str(os.getpid())
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data-dir", str(data_dir)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"{args.workload} exited {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(r.stdout)
        fail("no result line")
    if (set(result) != {"correct", "attempted", "failed", "metrics"}
            or result["correct"] is not True or result["attempted"] < 1):
        sys.stderr.write(r.stdout)
        fail("malformed or incorrect result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
