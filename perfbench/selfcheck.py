#!/usr/bin/env python3
"""Checks that the benchmark catches a slowdown and names the stage.

Usage (from the root of a checkout):

    python3 perfbench/selfcheck.py [--workload retrain_nyc] [--stall-ms 2]
                                   [--seconds 4] [--seed 1]

Runs the workload through perfbench/run.py four times: end-to-end and
traced, each without and with a fixed `debug_stall_ms` on every request (a
public request field; PlanService sleeps that long inside the rollout
worker). The injected stall sits in the serve stage, so:

  * latency_p50_ms must rise by at least the stall;
  * serve.exec_us_p50 must rise by at least the stall;
  * net.overhead_us_p50 (round trip minus the response's queue_ms + exec_ms)
    must not: it may rise by at most a quarter of the stall.

Prints the before/after table and exits 0 when all three hold, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(args, trace, stall_ms):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--stall-ms", str(stall_ms)]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit(f"selfcheck: {' '.join(command)} failed")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"selfcheck: run with stall {stall_ms} ms was not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="retrain_nyc")
    parser.add_argument("--stall-ms", type=float, default=2.0)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    stall_us = args.stall_ms * 1000.0
    base = {**run(args, 0, 0.0), **run(args, 1, 0.0)}
    slow = {**run(args, 0, args.stall_ms), **run(args, 1, args.stall_ms)}
    # (metric, rise in us, required minimum rise, allowed maximum rise)
    checks = [
        ("latency_p50_ms", 1000.0, stall_us, None),
        ("serve.exec_us_p50", 1.0, stall_us, None),
        ("net.overhead_us_p50", 1.0, None, stall_us / 4.0),
    ]
    ok = True
    print(f"injected stall: {args.stall_ms} ms on every request "
          f"({args.workload}, seed {args.seed})")
    for name, to_us, at_least, at_most in checks:
        rise_us = (slow[name] - base[name]) * to_us
        passed = ((at_least is None or rise_us >= at_least) and
                  (at_most is None or rise_us <= at_most))
        ok = ok and passed
        bound = (f">= {at_least:.0f} us" if at_least is not None
                 else f"<= {at_most:.0f} us")
        print(f"{name:22s} {base[name]:12.4f} -> {slow[name]:12.4f}  "
              f"rise {rise_us:10.1f} us (needs {bound})  "
              f"{'ok' if passed else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
