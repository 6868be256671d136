#!/usr/bin/env python3
"""Exact-count self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

Runs each workload (all three by default) traced through run.py with two
seeds, and fails unless every run is correct, drops no trace events, and
reports the same per-request ckks.*/math.* operation counts in both runs.
perfbench itself already fails a run whose requests disagree on these
counts, so together they make the counts exact: equal across requests,
seeds and runs. Takes a few minutes; exits 0 on success.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("cnn1-enc", "cnn2-enc", "cnn1-serve")
SEEDS = (1, 2)
EXACT = ("ckks.ksw_inner", "ckks.mod_down", "ckks.rotations", "ckks.relin",
         "ckks.ct_mults", "ckks.pt_mults", "ckks.rescales", "math.ntt_fwd",
         "math.ntt_inv")


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed}: run.py exited "
                 f"{out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    for workload in sys.argv[1:] or WORKLOADS:
        runs = [traced_run(workload, seed) for seed in SEEDS]
        for seed, m in zip(SEEDS, runs):
            if m["trace.dropped"] != 0:
                sys.exit(f"FAIL {workload} seed {seed}: dropped "
                         f"{m['trace.dropped']} trace events")
        counts = [{k: m[k] for k in EXACT} for m in runs]
        if counts[0] != counts[1]:
            sys.exit(f"FAIL {workload}: counts differ between seeds "
                     f"{SEEDS}: {counts}")
        print(f"ok {workload}: " +
              " ".join(f"{k}={v:g}" for k, v in counts[0].items()))


if __name__ == "__main__":
    main()
