#!/usr/bin/env bash
# Records the engine perf trajectory in-tree: runs the hot-path
# microbenchmarks (micro_core, if built) and the quick
# fig13/fig14/fig15/fig16 engine-counter sweeps, then writes
# BENCH_engine.json at the repo root.
# Operation counts only — this project never records or asserts wall
# time (single-core CI).
#
# History: the snapshot recorded for a *different* commit than the one
# being regenerated is appended to a dated `history` list before the
# current counters are replaced. Regenerating twice without an
# intervening commit only replaces the current counters — it never
# consumes or overwrites a history entry.
#
# Usage: scripts/record_bench.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
RESULTS="$(mktemp -d)"
trap 'rm -rf "$RESULTS"' EXIT

FIG13="$BUILD/bench/fig13_datacenter_scale"
if [[ ! -x "$FIG13" ]]; then
  echo "error: $FIG13 not built (cmake --build $BUILD --target fig13_datacenter_scale)" >&2
  exit 1
fi

MICRO="$BUILD/bench/micro_core"
if [[ -x "$MICRO" ]]; then
  echo "== micro_core (hot-path microbenchmarks) =="
  "$MICRO" --benchmark_format=json > "$RESULTS/micro_core.json" || {
    echo "warning: micro_core failed; continuing without it" >&2
    rm -f "$RESULTS/micro_core.json"
  }
else
  echo "note: micro_core not built (Google Benchmark missing?); skipping" >&2
fi

echo "== fig13 quick sweep + streaming/hybrid scale points (engine counters) =="
"$FIG13" --scale --json --no-csv --results-dir "$RESULTS"

FIG14="$BUILD/bench/fig14_dynamic_traffic"
if [[ -x "$FIG14" ]]; then
  echo "== fig14 quick sweep (dynamic-traffic engine counters) =="
  "$FIG14" --json --no-csv --results-dir "$RESULTS"
else
  echo "note: fig14_dynamic_traffic not built; skipping its counters" >&2
fi

FIG15="$BUILD/bench/fig15_spine_leaf"
if [[ -x "$FIG15" ]]; then
  echo "== fig15 quick sweep (spine-leaf engine counters) =="
  "$FIG15" --json --no-csv --results-dir "$RESULTS"
else
  echo "note: fig15_spine_leaf not built; skipping its counters" >&2
fi

FIG16="$BUILD/bench/fig16_loss_resilience"
if [[ -x "$FIG16" ]]; then
  echo "== fig16 quick sweep (fault-ladder engine counters) =="
  "$FIG16" --json --no-csv --results-dir "$RESULTS"
else
  echo "note: fig16_loss_resilience not built; skipping its counters" >&2
fi

python3 - "$RESULTS" "$ROOT/BENCH_engine.json" <<'EOF'
import datetime
import json, subprocess, sys, os

results_dir, out_path = sys.argv[1], sys.argv[2]


def load_counters(name):
    """JsonSink output -> {point: {column: value}}, or None if absent."""
    path = os.path.join(results_dir, name)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    return {
        point: {
            col: doc["samples"][p][c][0]
            for c, col in enumerate(doc["columns"])
        }
        for p, point in enumerate(doc["points"])
    }


fig13 = load_counters("fig13_engine_counters.json")
fig13_scale = load_counters("fig13_scale_streaming.json")
fig13_hybrid = load_counters("fig13_scale_hybrid.json")
fig14 = load_counters("fig14_engine_counters.json")
fig15 = load_counters("fig15_engine_counters.json")
fig16 = load_counters("fig16_engine_counters.json")
with open(os.path.join(results_dir, "fig13_engine_counters.json")) as f:
    base_seed = json.load(f)["base_seed"]

git = subprocess.run(["git", "-C", os.path.dirname(out_path) or ".",
                      "rev-parse", "--short", "HEAD"],
                     capture_output=True, text=True).stdout.strip()

doc = {
    "comment": "Engine perf trajectory: operation counts only, never wall "
               "time (single-core CI). Regenerate with scripts/record_bench.sh; "
               "scripts/check_counter_regression.py gates CI on it against "
               "the last committed copy.",
    "source": "fig13_datacenter_scale / fig14_dynamic_traffic / "
              "fig15_spine_leaf / fig16_loss_resilience --json "
              "(quick points)",
    "base_seed": base_seed,
    "git": git,
    "fig13_engine_counters": fig13,
}
if fig13_scale is not None:
    doc["fig13_scale_streaming"] = fig13_scale
if fig13_hybrid is not None:
    # 1M-flow hybrid packet/fluid point (fig13 Table 4): ev/flow is the
    # headline — the fluid middle removes per-packet events from
    # elephant bytes.
    doc["fig13_scale_hybrid"] = fig13_hybrid
if fig14 is not None:
    doc["fig14_engine_counters"] = fig14
if fig15 is not None:
    doc["fig15_engine_counters"] = fig15
if fig16 is not None:
    # Fault-ladder counters (fig16 Table 3). The "off" row doubles as
    # the differential guard: it must never move unless the no-fault
    # engine itself changed.
    doc["fig16_engine_counters"] = fig16

# Dated history: snapshots survive regeneration. The previous current
# entry is appended only when it belongs to a different commit, so
# running this script twice between commits never eats history.
COUNTER_KEYS = ("fig13_engine_counters", "fig13_scale_streaming",
                "fig13_scale_hybrid", "fig14_engine_counters",
                "fig15_engine_counters", "fig16_engine_counters")
history = []
if os.path.exists(out_path):
    with open(out_path) as f:
        try:
            prev = json.load(f)
        except json.JSONDecodeError:
            prev = None
    if prev:
        history = list(prev.get("history", []))
        # Migrate the old single "previous" slot once.
        if not history and "previous" in prev:
            history.append({"git": prev["previous"].get("git", ""),
                            "recorded_at": "",
                            "fig13_engine_counters":
                                prev["previous"].get("fig13_engine_counters")})
        if prev.get("git") and prev.get("git") != git:
            entry = {"git": prev["git"],
                     "recorded_at": prev.get("recorded_at", "")}
            for key in COUNTER_KEYS:
                if key in prev:
                    entry[key] = prev[key]
            history.append(entry)
doc["recorded_at"] = datetime.datetime.now(
    datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
doc["history"] = history

# micro_core ran as a smoke test above; only the benchmark *names* are
# recorded. Its numbers (ns/op, items/s) are wall-time-derived and this
# file's policy is operation counts only — committing them would churn
# with machine load on every regeneration.
micro = os.path.join(results_dir, "micro_core.json")
if os.path.exists(micro):
    with open(micro) as f:
        mdoc = json.load(f)
    doc["micro_core_benchmarks"] = sorted(
        b["name"] for b in mdoc.get("benchmarks", []))

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path}")
EOF
