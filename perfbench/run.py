#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of encrypted CNN inference.

    python3 perfbench/run.py --workload cnn1-enc --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It configures and builds
perfbench/CMakeLists.txt (the ppcnn libraries plus the perfbench program) into
.bench_build/, runs one workload (training its model once on first use, cached in
.bench_build/models), and prints the program's result object as the last line of
standard output: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (names and units as listed in BENCHMARK.json). The line before
it is a {"context": ...} object with the host and run context.

Exit code 0 means every reply was correct; 1 means a reply was wrong or a
request failed (the result line says which); 2 means the benchmark could not
build or run, and then no result line is printed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("cnn1-enc", "cnn2-enc", "cnn1-serve")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench; output goes to build.log."""
    BUILD.mkdir(exist_ok=True)
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
            cache.read_text(errors="replace")):
        cache.unlink()  # configured from another checkout path
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(BUILD / "build.log", "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text(errors="replace")
                print(tail[-4000:], file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache-dir", str(BUILD / "models")]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with {proc.returncode} after "
             f"{time.monotonic() - started:.1f} s")

    result = json.loads(lines[-1])
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    want = expected_metrics(args.trace)
    if got != want:
        fail(f"metrics {got} differ from BENCHMARK.json {want}")
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
