#!/usr/bin/env python3
"""CI counter-regression gate.

Compares freshly produced engine-counter JSON files (JsonSink format,
e.g. fig13/fig14/fig15_engine_counters.json) against
the committed BENCH_engine.json baseline and fails when a gated counter
regressed by more than the tolerance. Gated counters are *operation
counts* (events processed, packet allocations) — never wall time: this
repository's CI runners are single-core and wall-time-noisy, so timing
is not measured anywhere.

The baseline is read from git (`git show <ref>:BENCH_engine.json`,
default ref HEAD) so the gate explicitly compares against the last
*committed* baseline — a regenerated-but-uncommitted working-tree
BENCH_engine.json cannot weaken the gate. Pass --baseline-ref '' to
read the working-tree file instead (local experimentation).

Usage:
  scripts/check_counter_regression.py <fresh.json> [<fresh.json>...] \
      [--baseline BENCH_engine.json] [--baseline-ref HEAD] \
      [--tolerance 0.05]

Exit status: 0 ok, 1 regression, 2 usage/format error.
"""

import argparse
import json
import os
import subprocess
import sys

# Counters gated on: more of these = the engine does more work (or holds
# more memory) per run. All are deterministic operation/object counts
# (ev/flow is events over the fixed flow count, so it inherits their
# determinism — and it is the headline number for the hybrid backend's
# fast-forward win). Ratio-style columns whose denominator moves with
# behaviour (recycle%, scan/pkt) stay report-only to keep the gate
# signal crisp. peak_pending is gated too: every run chains its flows'
# start (streaming: creation) events through reserved sequence numbers,
# so it tracks the *active* population, not total flows.
GATED = ("events", "ev/flow", "pkt_allocs", "peak_flow_bytes",
         "pool_highwater", "peak_pending")


def load_fresh(path):
    """JsonSink output -> (experiment name, {point: {column: value}})."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for p, point in enumerate(doc["points"]):
        out[point] = {
            col: doc["samples"][p][c][0]
            for c, col in enumerate(doc["columns"])
        }
    return doc.get("experiment", "fig13_engine_counters"), out


def load_baseline(path, ref):
    """The committed baseline document, falling back to the working tree
    when ref is empty or git cannot serve it. The git path is anchored
    at the baseline file's own directory (`git -C dir show ref:./name`),
    so the gate works from any cwd."""
    if ref:
        dirname = os.path.dirname(os.path.abspath(path)) or "."
        name = os.path.basename(path)
        proc = subprocess.run(
            ["git", "-C", dirname, "show", f"{ref}:./{name}"],
            capture_output=True, text=True)
        if proc.returncode == 0:
            return json.loads(proc.stdout), f"{ref}:./{name}"
        print(f"counter gate: git show {ref}:./{name} failed "
              f"({proc.stderr.strip() or 'unknown error'}); falling back "
              "to the working-tree baseline", file=sys.stderr)
    with open(path) as f:
        return json.load(f), path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", nargs="+",
                    help="engine-counter JSON file(s) from this run")
    ap.add_argument("--baseline", default="BENCH_engine.json")
    ap.add_argument("--baseline-ref", default="HEAD",
                    help="git ref holding the committed baseline "
                         "('' = working tree)")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed relative increase (default 5%%)")
    args = ap.parse_args()

    try:
        baseline, source = load_baseline(args.baseline, args.baseline_ref)
    except (OSError, json.JSONDecodeError) as e:
        print(f"counter gate: cannot load baseline: {e}", file=sys.stderr)
        return 2
    print(f"counter gate: baseline {source}")

    failures = []
    checked = 0
    for fresh_path in args.fresh:
        try:
            key, fresh = load_fresh(fresh_path)
        except (OSError, KeyError, json.JSONDecodeError) as e:
            print(f"counter gate: cannot load {fresh_path}: {e}",
                  file=sys.stderr)
            return 2
        base = baseline.get(key)
        if base is None:
            print(f"counter gate: baseline has no {key!r} section "
                  f"(new bench?) — skipping {fresh_path}; regenerate the "
                  "baseline with scripts/record_bench.sh to start gating "
                  "it", file=sys.stderr)
            continue
        print(f"  [{key}]")
        for point, base_cols in sorted(base.items()):
            if point not in fresh:
                print(f"counter gate: point {point!r} missing from fresh "
                      "run (sweep shape changed?) — skipping",
                      file=sys.stderr)
                continue
            for col in GATED:
                if col not in base_cols or col not in fresh[point]:
                    continue
                b, f_ = base_cols[col], fresh[point][col]
                checked += 1
                limit = b * (1.0 + args.tolerance)
                status = "OK"
                if f_ > limit and f_ - b > 0.5:  # absolute slack, tiny counts
                    status = "REGRESSION"
                    failures.append((key, point, col, b, f_))
                print(f"  {point:>14} {col:>12}: baseline {b:>14.1f} "
                      f"fresh {f_:>14.1f}  {status}")

    if checked == 0:
        print("counter gate: nothing compared — baseline/fresh shape "
              "mismatch", file=sys.stderr)
        return 2
    if failures:
        print(f"\ncounter gate FAILED: {len(failures)} counter(s) regressed "
              f"more than {args.tolerance:.0%}:", file=sys.stderr)
        for key, point, col, b, f_ in failures:
            print(f"  {key}/{point}/{col}: {b:.0f} -> {f_:.0f} "
                  f"(+{(f_ - b) / b:.1%})", file=sys.stderr)
        print("If the increase is intentional (new features cost events), "
              "regenerate the baseline with scripts/record_bench.sh and "
              "commit BENCH_engine.json.", file=sys.stderr)
        return 1
    print(f"counter gate passed: {checked} counters within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
