#!/usr/bin/env python3
"""End-to-end IPAS pipeline benchmark.

Builds perfbench/ (which compiles the library under src/ from source) into
.bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 25 --trace 0

Workloads: campaign, training, artifacts (see perfbench/README.md). With
--trace 0 the result line carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Build output and the benchmark's
human-readable report go to stderr; the last line of stdout is the JSON
result. Results files land in .bench_build/results.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
REFERENCE = os.path.join(HERE, "reference", "digests.json")
WORKLOADS = ("campaign", "training", "artifacts")

# A run must finish within 180 s, or 900 s when it also builds.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 880


def fail(msg):
    print("error: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds both executables; returns True if
    anything had to be configured."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src: run from a full checkout" % ROOT)
    configured = os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "pipeline_bench", "pipeline_bench_traced"],
                   stdout=sys.stderr, check=True)
    return not configured


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        built = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    os.makedirs(RESULTS_DIR, exist_ok=True)

    exe = "pipeline_bench_traced" if args.trace else "pipeline_bench"
    cmd = [os.path.join(BUILD_DIR, exe), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", RESULTS_DIR,
           "--reference", REFERENCE]
    limit = (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S)
    limit -= time.monotonic() - start
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %.0f s" % limit)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        print("error: benchmark printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        sys.exit(proc.returncode or 1)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
