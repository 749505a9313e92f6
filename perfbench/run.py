#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the rlplanner serving stack.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload wire_univ1 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the rlplanner libraries it links, from ../src) with
CMake into $CARGO_TARGET_DIR (default .bench_build), runs one workload, checks
that the result names exactly the metrics BENCHMARK.json lists for the mode
(end-to-end with --trace 0, per-layer with --trace 1), and prints the
benchmark's context line followed by the result as the last line of stdout.
Build output goes to stderr. The binary reports bare metric values; the
units come from BENCHMARK.json. Exits non-zero, without a result, when the
build, the run or the result check fails. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target",
               "perfbench"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(line, expected):
    """The benchmark's result line with each metric value given its unit
    from BENCHMARK.json; fails unless it names exactly the expected
    metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")
    result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in expected.items()}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stall-ms", type=float, default=0.0,
                        help="debug_stall_ms sent on every load request "
                             "(the self-check's injected slowdown)")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    expected = expected_metrics(args.trace)
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--stall-ms", str(args.stall_ms)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}.trace.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    lines[-1] = with_units(lines[-1], expected)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
