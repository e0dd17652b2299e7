#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Runs every workload twice at reduced length (traced, so the per-layer
counts are produced too) and requires identical digests: the
mispredict and cycle ratios, formulas scored, hint counts and the
digests of every trained or pulled bundle. Then runs each workload on
a second seed and requires that it passes every output check and
trains different bundles (the seed really selects the inputs).

    python3 perfbench/tests/test_determinism.py [workload ...]
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "run.py")
WORKLOADS = ("offline_paper", "wire_ingest", "wire_retrain")
SCALE = "0.5"


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--scale", SCALE],
        capture_output=True, text=True, check=True).stdout
    lines = [json.loads(line) for line in out.strip().splitlines()]
    digest = next(line["digest"] for line in lines if "digest" in line)
    return digest, lines[-1]


def bundles(digest):
    return {k: v for k, v in digest.items() if k.startswith("bundle.")}


def main():
    failures = []
    for workload in sys.argv[1:] or WORKLOADS:
        before = len(failures)
        first, result = run(workload, 1)
        second, _ = run(workload, 1)
        if first != second:
            failures.append("%s: digests differ across runs:\n  %s\n  %s"
                            % (workload, first, second))
        if not result["correct"]:
            failures.append("%s seed 1: output checks failed" % workload)
        other, other_result = run(workload, 2)
        if not other_result["correct"]:
            failures.append("%s seed 2: output checks failed" % workload)
        if bundles(other) == bundles(first):
            failures.append("%s: seed 2 trained the same bundles as seed 1"
                            % workload)
        print("%s: %s" % (workload,
                          "ok" if len(failures) == before else "FAILED"),
              flush=True)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
