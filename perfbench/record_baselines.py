#!/usr/bin/env python3
"""Records perfbench/baselines.json: every workload, both modes, at the
default seed and at one held-out seed, on the current machine.

    python3 perfbench/record_baselines.py [--seconds 20]

Runs perfbench/run.py once per (workload, seed, mode), in sequence, and
stores each run's fingerprint, detail and result line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = {"default": 1000, "held_out": 4242}


def run(workload, seed, trace, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    record = {"result": json.loads(lines[-1])}
    for line in lines:
        for key in ("detail", "fingerprint"):
            if line.startswith(key + ": "):
                record[key] = json.loads(line[len(key) + 2:])
    return record


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=15)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    baselines = {}
    for label, seed in SEEDS.items():
        for w in workloads:
            for trace in (0, 1):
                key = "%s/%s/trace%d" % (w, label, trace)
                print("recording " + key, file=sys.stderr)
                baselines[key] = run(w, seed, trace, args.seconds)
    path = os.path.join(ROOT, "perfbench", "baselines.json")
    with open(path, "w") as f:
        json.dump(baselines, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
