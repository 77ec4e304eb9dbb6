#!/usr/bin/env python3
"""Builds and runs the perfbench end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|smoke]

Builds perfbench/ (and the library sources it compiles) into .bench_build/
at the checkout root, runs one workload, and relays its output. The last
stdout line is the run's result: one JSON object with the keys correct,
attempted, failed and metrics. Traced runs write their span trace under
.bench_out/. Exits non-zero, without a result line, when the build fails,
and non-zero with a result line when a correctness gate failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(step)} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
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
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--out-dir", OUT_DIR,
               "--commit", source_digest()]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, TypeError):
        keys_ok = False
    if not keys_ok:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} printed no result line (exit {done.returncode})",
             4)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
