#!/usr/bin/env python3
"""Builds the simulator benchmark from the sources next to it and runs it.

    python3 perfbench/run.py --workload wiki-8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --fidelity

Run from the repository root. The build goes to .bench_build/ and the run's
artifacts (trace/telemetry files, spans) to .bench_build/out/. The last line
of standard output is the result JSON; build logs go to standard error.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/) next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fidelity", action="store_true",
                        help="check the wiring against harness::run_experiment")
    args = parser.parse_args()
    if not args.fidelity and not args.workload:
        parser.error("--workload is required")

    build()
    if args.fidelity:
        cmd = [BINARY, "--fidelity", "--out", OUT]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if args.fidelity:
        print("\n".join(lines))
        sys.exit(proc.returncode)
    if proc.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail(f"run exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(want):
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(set(result["metrics"]) ^ set(want))))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
