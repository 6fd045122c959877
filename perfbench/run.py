#!/usr/bin/env python3
"""Build and run the perfbench wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (a CMake package compiled against ../src, Release) into
.bench_build/perfbench; later calls rebuild incrementally. The benchmark's
output is passed through, and its last line is the result object
{"correct", "attempted", "failed", "metrics"}. A failed build or run exits
non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ge-bigtile", "fw-smalltile", "viterbi-rows", "serve-mixed")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except ValueError:
        ok = False
    if not ok:
        sys.stdout.write(proc.stdout)
        print("perfbench: last line is not a result object", file=sys.stderr)
        return 1
    # The binary and BENCHMARK.json must name the same metrics.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {
            k: v["unit"] for k, v in result["metrics"].items()}:
        sys.stdout.write(proc.stdout)
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
