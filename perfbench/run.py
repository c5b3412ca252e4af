#!/usr/bin/env python3
"""Builds and runs the PDQ simulator benchmark for one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload query_deadline --seed 1000 \
        --seconds 15 --trace 0

The first call configures and builds perfbench/ (the pdq library from
src/ plus the benchmark binary) into .bench_build/perfbench; later calls
rebuild incrementally. The pdq_perfbench binary runs the workload and reports
JSON; this script prints a readable table, the machine and workload
fingerprints, and, as its last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when every
correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pdq_perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from a full source tree")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_rev():
    """git HEAD when the tree is a checkout, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    run = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--rev", source_rev()],
        capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("pdq_perfbench printed nothing (exit %d)" % run.returncode)
    report = json.loads(lines[-1])
    measured = report["result"]["metrics"]

    metrics = {}
    print("%s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for m in wanted:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-30s %16.6g %s" % (m["name"], value, m["unit"]))
    for name, value in sorted(measured.items()):
        if name not in metrics:
            print("  %-30s %16.6g (not gated)" % (name, value))
    print("detail: " + json.dumps(report["result"]["detail"]))
    print("fingerprint: " + json.dumps(report["fingerprint"]))
    correct = bool(report["correct"]) and run.returncode == 0
    if not correct:
        print("checks failed: " + report.get("check_failures", ""),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
