// Shared plumbing for the figure-reproduction benchmarks.
//
// Every bench binary declares its figure as one or more
// harness::ExperimentSpec values and hands them to run_and_report(),
// which executes the (column x point x trial) sweep over a thread pool,
// prints the aligned text table, and persists per-trial CSV (and,
// with --json, JSON) under results/.
//
// Common flags, uniform across every bench:
//   --full         paper-scale sweeps (default: scaled-down, seconds)
//   --seed S       base seed; trial t runs with S + 7*t (harness ladder)
//   --threads N    SweepRunner pool size (default: hardware concurrency)
//   --results-dir D  where CSV/JSON land (default: results)
//   --json         also write JSON results
//   --no-csv       skip CSV output
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_spec.h"
#include "harness/experiment.h"
#include "harness/sinks.h"
#include "harness/stacks.h"
#include "harness/sweep.h"
#include "sched/fluid.h"
#include "workload/workload.h"

namespace pdq::bench {

struct BenchArgs {
  bool full = false;
  /// --scale: the streaming-mode 100k-flow scale point (fig13). Implied
  /// by --full; on its own it adds only the scale table to a quick run.
  bool scale = false;
  std::optional<std::uint64_t> seed;
  int threads = 0;  // 0 = hardware concurrency
  std::string results_dir = "results";
  bool json = false;
  bool csv = true;
  /// --load override for the dynamic-traffic load sweep (fig14); empty =
  /// the bench's default points. Other benches accept and ignore it.
  std::vector<double> loads;
  /// --timeline preset for the dynamic-traffic benches:
  /// both|incast|failure|none. Other benches accept and ignore it.
  std::string timeline = "both";
  /// --faults preset (faults/fault_spec.h): off|loss|burst|ctrl|flap|
  /// reset|chaos. "off" (the default) leaves every run byte-identical
  /// to the historical no-fault path; anything else arms the fault
  /// plane and the run auditor on every sweep sample.
  std::string faults = "off";

  /// The armed fault plane for --faults, or null for "off".
  std::shared_ptr<const faults::FaultSpec> fault_plane() const {
    return faults::FaultSpec::preset(faults);
  }

  /// The base seed: --seed when given, else the bench's default.
  std::uint64_t seed_or(
      std::uint64_t dflt = harness::kDefaultBaseSeed) const {
    return seed.value_or(dflt);
  }
};

/// The single source of truth for every bench binary's --help flag block
/// (the satellite of docs/workloads.md). One row per flag; print_usage()
/// and the fixed-scenario help (fixed_scenario_help()) both render it.
struct FlagDoc {
  const char* spec;  // "--flag VALUE"
  const char* help;
};

inline constexpr FlagDoc kFlagTable[] = {
    {"--full", "paper-scale sweeps (default: scaled-down)"},
    {"--scale",
     "streaming-mode 100k-flow scale table (fig13; implied by --full; "
     "others accept and ignore)"},
    {"--seed S", "base seed; trial t runs with S + 7*t"},
    {"--threads N", "SweepRunner pool size (default: hw concurrency)"},
    {"--results-dir D", "where CSV/JSON land (default: results)"},
    {"--json", "also write JSON results"},
    {"--no-csv", "skip CSV output"},
    {"--load L[,L...]",
     "offered-load sweep points, rho in (0,1) (dynamic-traffic benches; "
     "others accept and ignore)"},
    {"--timeline T",
     "timeline preset both|incast|failure|none (dynamic-traffic benches; "
     "others accept and ignore)"},
    {"--faults F",
     "fault-plane preset off|loss|burst|ctrl|flap|reset|chaos (default "
     "off: byte-identical to the no-fault path)"},
};

inline constexpr const char* kCounterGlossary =
    "Engine-counter tables (fig13/fig14 and BENCH_engine.json) report,\n"
    "per sweep point: events (executed), ev/flow (events per completed\n"
    "flow), coalesced (events elided by per-hop transmit coalescing),\n"
    "scans (flow-list entries visited by the switch fast path),\n"
    "scan/pkt (scans per packet acquire — flat when the PDQ switch is\n"
    "O(1) amortized), pkt_allocs and recycle%, plus the memory peaks:\n"
    "peak_pending (event-queue high-water), pool_highwater (in-flight\n"
    "packet high-water) and peak_flow_bytes (live transport-agent\n"
    "footprint high-water — sublinear in total flows under streaming\n"
    "mode). Deterministic operation/object counts only; wall time is\n"
    "never measured or asserted (single-core CI).\n";

inline void print_flag_block(std::FILE* out) {
  for (const auto& f : kFlagTable) {
    std::fprintf(out, "  %-18s %s\n", f.spec, f.help);
  }
}

inline void print_usage(const char* prog, std::FILE* out) {
  std::fprintf(out, "usage: %s [flags]\n\n", prog);
  print_flag_block(out);
  std::fprintf(out, "\n%s", kCounterGlossary);
}

/// --help handling for the fixed-scenario benches (fig1/fig6/fig7):
/// prints `what` plus the shared flag block and returns true when the
/// caller should exit. Other flags are accepted and ignored there.
inline bool fixed_scenario_help(int argc, char** argv, const char* what) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s\n\n%s; takes no tuning flags (the shared flags "
          "below\napply to the sweep benches and are accepted and "
          "ignored here).\n\n",
          argv[0], what);
      print_flag_block(stdout);
      std::printf("\n%s", kCounterGlossary);
      return true;
    }
  }
  return false;
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs a;
  auto value = [&](int& i) -> const char* {
    if (++i >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i - 1]);
      std::exit(2);
    }
    return argv[i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") a.full = true;
    else if (arg == "--scale") a.scale = true;
    else if (arg == "--seed") a.seed = static_cast<std::uint64_t>(std::strtoull(value(i), nullptr, 10));
    else if (arg == "--threads") a.threads = std::atoi(value(i));
    else if (arg == "--results-dir") a.results_dir = value(i);
    else if (arg == "--json") a.json = true;
    else if (arg == "--no-csv") a.csv = false;
    else if (arg == "--load") {
      const std::string list = value(i);
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const double rho = std::strtod(tok.c_str(), nullptr);
        if (!(rho > 0.0 && rho < 1.0)) {
          std::fprintf(stderr, "--load: %s is not in (0,1)\n", tok.c_str());
          std::exit(2);
        }
        a.loads.push_back(rho);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--timeline") {
      a.timeline = value(i);
      if (a.timeline != "both" && a.timeline != "incast" &&
          a.timeline != "failure" && a.timeline != "none") {
        std::fprintf(stderr,
                     "--timeline: %s is not both|incast|failure|none\n",
                     a.timeline.c_str());
        std::exit(2);
      }
    } else if (arg == "--faults") {
      a.faults = value(i);
      std::string error;
      faults::FaultSpec::preset(a.faults, &error);
      if (!error.empty()) {
        std::fprintf(stderr, "--faults: %s\n", error.c_str());
        std::exit(2);
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(argv[0], stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      print_usage(argv[0], stderr);
      std::exit(2);
    }
  }
  return a;
}

/// Fresh stack by registry name; exits with the registry's error message
/// (listing the available stacks) on an unknown name.
inline std::unique_ptr<harness::ProtocolStack> make_stack(
    const std::string& name, const harness::StackOptions& options = {}) {
  std::string error;
  auto stack = harness::StackRegistry::global().make(name, options, &error);
  if (stack == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return stack;
}

/// The paper's seven single-path transports, in figure-legend order.
/// Registry additions beyond the paper set are excluded BY NAME and ON
/// PURPOSE: "M-PDQ" and "DCTCP" joining would change the column sets of
/// the historical fig3/fig4 tables and break their golden outputs
/// (tests/bench_golden_test.cc). M-PDQ is compared in fig10, DCTCP in
/// fig15. The exclusion list is pinned by
/// tests/bench_contract_test.cc — extend that test (and the goldens)
/// deliberately if a new stack should join the default set.
inline std::vector<std::string> all_stacks() {
  std::vector<std::string> v;
  for (const auto& name : harness::StackRegistry::global().names()) {
    if (name != "M-PDQ" && name != "DCTCP") v.push_back(name);
  }
  return v;
}

inline std::vector<std::string> main_stacks() {
  return {"PDQ(Full)", "D3", "RCP", "TCP"};
}

/// Persists CSV/JSON per the flags; returns the CSV path (empty if none).
inline std::string write_outputs(const harness::SweepResults& results,
                                 const BenchArgs& args) {
  std::string csv;
  if (args.csv) {
    csv = harness::result_path(args.results_dir, results.name, "csv");
    harness::CsvSink(csv).write(results);
  }
  if (args.json) {
    harness::JsonSink(
        harness::result_path(args.results_dir, results.name, "json"))
        .write(results);
  }
  return csv;
}

/// Runs the spec (honoring --threads/--seed already baked into it),
/// prints the table, persists CSV/JSON, returns the results.
inline harness::SweepResults run_and_report(const harness::ExperimentSpec& spec,
                                            const BenchArgs& args,
                                            const char* cell_format = " %12.2f",
                                            bool transpose = false) {
  harness::SweepRunner runner(args.threads);
  auto results = runner.run(spec);
  harness::TableSink table(stdout, cell_format);
  table.transpose(transpose);
  table.write(results);
  write_outputs(results, args);
  return results;
}

// ---- engine-counter tables (fig13 and friends) ----

/// One simulation per (scenario label, stack, seed), shared by all
/// counter columns, via the canonical SweepRunner::run_sample recipe
/// (cold PacketPool, so packet_allocs is the run's true in-flight
/// high-water mark — deterministic for any thread count or prior pool
/// warmth). The lock only guards the map; concurrent misses on the same
/// key recompute the identical value.
///
/// CONTRACT: the label must uniquely identify the scenario — a
/// SweepPoint that varies anything beyond topology/workload (options,
/// parameters applied in-place) while reusing the same
/// `topology.name + "/" + workload.name` would silently be served
/// another point's cached counters. Encode every varied knob in one of
/// the names (fig13 bakes the flow count into the workload name).
struct EngineCounterSample {
  harness::EngineCounters engine;
  double completed = 0.0;
};

class EngineCounterCache {
 public:
  EngineCounterSample get(const harness::Scenario& sc,
                          const std::string& label, std::uint64_t seed,
                          const std::string& stack) {
    const auto key = std::make_pair(label + "\x1f" + stack, seed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    const auto run = harness::SweepRunner::run_sample(sc, stack, {}, seed);
    EngineCounterSample sample;
    sample.engine = run.result.engine;
    sample.completed = static_cast<double>(run.result.completed());
    std::lock_guard<std::mutex> lock(mu_);
    return cache_[key] = sample;
  }

 private:
  std::mutex mu_;
  std::map<std::pair<std::string, std::uint64_t>, EngineCounterSample> cache_;
};

/// The canonical engine-counter columns, shared by fig13 and any other
/// counter-reporting bench (see --help for the column glossary). Each
/// column evaluates from the cached sample of (scenario, seed, stack).
inline std::vector<harness::Column> engine_counter_columns(
    std::shared_ptr<EngineCounterCache> cache, std::string stack) {
  struct Def {
    const char* label;
    double (*read)(const EngineCounterSample&);
  };
  static const Def kDefs[] = {
      {"events",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.events_executed);
       }},
      {"ev/flow",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.events_executed) /
                std::max(1.0, s.completed);
       }},
      {"coalesced",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.events_coalesced);
       }},
      {"scans",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.flowlist_scan_ops);
       }},
      {"scan/pkt",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.flowlist_scan_ops) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, s.engine.packet_acquires));
       }},
      {"pkt_allocs",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.packet_allocs);
       }},
      {"recycle%",
       [](const EngineCounterSample& s) {
         return s.engine.recycle_percent();
       }},
      {"peak_pending",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.peak_pending_events);
       }},
      {"pool_highwater",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.pool_highwater);
       }},
      {"peak_flow_bytes",
       [](const EngineCounterSample& s) {
         return static_cast<double>(s.engine.peak_flow_bytes);
       }},
  };
  std::vector<harness::Column> columns;
  for (const auto& def : kDefs) {
    harness::Column c;
    c.label = def.label;
    c.evaluate = [cache, stack, read = def.read](const harness::Scenario& sc,
                                                 std::uint64_t seed) {
      return read(cache->get(
          sc, sc.topology.name + "/" + sc.workload.name, seed, stack));
    };
    columns.push_back(std::move(c));
  }
  return columns;
}

/// Wraps an already-computed grid (e.g. from a binary search per cell,
/// where values are not independent (point x trial) samples) as
/// SweepResults so the sinks apply uniformly. cells[point][column].
inline harness::SweepResults grid_results(
    std::string name, std::string axis, std::string metric,
    std::vector<std::string> columns, std::vector<std::string> points,
    const std::vector<std::vector<double>>& cells, std::uint64_t base_seed) {
  harness::SweepResults r;
  r.name = std::move(name);
  r.axis = std::move(axis);
  r.metric = std::move(metric);
  r.columns = std::move(columns);
  r.points = std::move(points);
  r.base_seed = base_seed;
  r.seeds = {base_seed};
  for (const auto& row : cells) {
    std::vector<std::vector<double>> cols;
    for (double v : row) cols.push_back({v});
    r.samples.push_back(std::move(cols));
  }
  return r;
}

// ---- table printing for the non-sweep (time-series) benches ----

inline void print_header(const char* xlabel,
                         const std::vector<std::string>& cols) {
  std::printf("%-14s", xlabel);
  for (const auto& c : cols) std::printf(" %12s", c.c_str());
  std::printf("\n");
}

inline void print_row(const std::string& x, const std::vector<double>& cells,
                      const char* fmt = " %12.2f") {
  std::printf("%-14s", x.c_str());
  for (double v : cells) std::printf(fmt, v);
  std::printf("\n");
}

}  // namespace pdq::bench
