// The benchmark's workloads and what one simulation of them produced.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "stats/streaming.h"

namespace perfbench {

/// Why each workload exists: perfbench/README.md and BENCHMARK.json.
struct Workload {
  std::string name;
  pdq::harness::Scenario scenario;  // topology, flow generator, run options
  std::string stack;                // StackRegistry name
  /// Flow sets one repetition simulates, one after another, each from
  /// its own trial_seed(). More than one where a single flow set's FCT
  /// tail rests on too few flows to be steady from seed to seed.
  int trials = 1;
};

/// Seed of trial `trial` of a repetition: the run's seed itself for
/// trial 0, then well-mixed values, so the trials of two nearby run
/// seeds never share a flow set.
std::uint64_t trial_seed(std::uint64_t seed, int trial);

/// The named workload, or nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name);

/// Size facts about one generated flow set (the workload fingerprint).
struct FlowSetFacts {
  std::uint64_t flows = 0;
  std::int64_t total_bytes = 0;
  std::int64_t largest_bytes = 0;
  /// Flows the hybrid backend would move to the fluid model (0 when the
  /// workload does not run it).
  std::uint64_t fluid_eligible = 0;
};
FlowSetFacts flow_set_facts(const std::vector<pdq::net::FlowSpec>& flows,
                            const pdq::harness::RunOptions& options);

/// What one repetition's simulations produced, pooled over its trials.
struct Outcome {
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  /// Ended by the protocol (PDQ Early Termination, D3 quenching). The
  /// streaming aggregates do not separate these from pending flows, so
  /// streaming runs count every unfinished flow as failed.
  std::uint64_t terminated = 0;
  /// Neither completed nor terminated when the run ended.
  std::uint64_t failed = 0;
  /// Flows the run reported on (per-flow records, or streaming folds).
  std::uint64_t reported = 0;
  double mean_fct_ms = 0.0;
  double p99_fct_ms = 0.0;  // nearest rank (the sketch when streaming)
  double app_throughput_pct = 0.0;
  /// Events executed, summed over the trials.
  std::uint64_t events = 0;
  /// FNV-1a over per-flow outcomes, or over the streaming aggregates.
  std::uint64_t digest = 0;
};

/// Pools the results of a repetition's trials into one Outcome.
class OutcomeFold {
 public:
  void add(const pdq::harness::RunResult& result, std::size_t scheduled);
  Outcome outcome() const;

 private:
  Outcome o_;
  std::vector<double> fct_ms_;  // completed flows, per-flow path
  pdq::stats::CompensatedSum fct_sum_ms_;
  std::uint64_t deadline_flows_ = 0;
  std::uint64_t deadline_met_ = 0;
  std::optional<pdq::stats::RunStats> streaming_;
  std::uint64_t digest_ = 14695981039346656037ULL;
};

}  // namespace perfbench
