#!/usr/bin/env python3
"""Build and run the host-cost benchmark (see perfbench/README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload ca_fleet --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The benchmark is an OCaml executable built with dune from the repository's
own sources. The last line of its standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["ca_fleet", "echo_sharded", "serve_mix"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root (no dune-project here)")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_one(workload, seed, seconds, trace):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} exited with code {proc.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_one(workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
