#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload offline_paper --seed 1 \
        --seconds 15 --trace 0

Builds perfbench/ (which compiles the library under src/) with CMake
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then
runs one workload. The last line of standard output is the result
JSON; the lines before it are the run's stamp and determinism digest.
Exits non-zero without a result when the sources or the build are
missing or broken.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
WORKLOADS = ("offline_paper", "wire_ingest", "wire_retrain")
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def library_sources():
    src = os.path.join(REPO_DIR, "src")
    found = []
    for root, _, files in os.walk(src):
        found += [os.path.join(root, f) for f in files
                  if f.endswith((".cc", ".hh"))]
    return sorted(found)


def commit_id(sources):
    """The git commit when there is one, else a digest of the sources
    the benchmark builds (the checkout it runs in need not be a git
    repository)."""
    try:
        out = subprocess.run(["git", "-C", REPO_DIR, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sources:
        h.update(os.path.relpath(path, REPO_DIR).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(REPO_DIR, target)
    build_dir = os.path.join(target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=850).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail), 3)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every input (determinism self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    sources = library_sources()
    if not any(p.endswith(".cc") for p in sources):
        fail("no library sources under %s" % os.path.join(REPO_DIR, "src"),
             2)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--commit", commit_id(sources)]
    proc = subprocess.Popen(cmd, cwd=REPO_DIR, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode, 5)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
