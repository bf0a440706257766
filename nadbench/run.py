#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 nadbench/run.py --workload <echo|boutique|tenants> \
        --seed <n> --seconds <s> --trace <0|1>

`--trace 0` prints every end-to-end metric; `--trace 1` prints the
per-layer metrics of a traced run, after a shorter untraced run that
gives `obs.trace_overhead_pct` its baseline. The build goes to
`$CARGO_TARGET_DIR` (default `.bench_build` in the current directory);
its output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The exit code is the benchmark's: 0 when
its correctness gate passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["echo", "boutique", "tenants"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seed < 0 or not a.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)

    release = os.path.join(target, "release")
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace == 0:
        run = subprocess.run([os.path.join(release, "nadbench"), *common,
                              "--seconds", repr(a.seconds), "--trace", "0"])
        sys.exit(run.returncode)

    # The traced run's host time over an untraced baseline's gives the
    # tracing overhead; the baseline gets a third of the time.
    base_s = max(1.0, a.seconds / 3)
    base = subprocess.run([os.path.join(release, "nadbench"), *common,
                           "--seconds", repr(base_s), "--trace", "0"],
                          stdout=subprocess.PIPE, text=True)
    sys.stderr.write(base.stdout)
    if base.returncode != 0:
        sys.exit(base.returncode)
    result = json.loads(base.stdout.strip().splitlines()[-1])
    host_ns = result["metrics"]["host_ns_per_req"]["value"]
    run = subprocess.run([os.path.join(release, "nadbench-traced"), *common,
                          "--seconds", repr(max(1.0, a.seconds - base_s)),
                          "--trace", "1", "--untraced-host-ns", repr(host_ns)])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
