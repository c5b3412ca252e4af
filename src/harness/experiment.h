// Experiment API v2: declarative experiment descriptions.
//
// An ExperimentSpec names everything one paper-style experiment needs —
// topology, workload, the stacks under test (as registry names plus
// overrides), the sweep axis, trials and metric — and the SweepRunner
// (sweep.h) executes the (column x point x trial) cross product. The
// v1 entry point, run_scenario(), remains as a thin compatibility shim
// for one-off runs; see docs/architecture.md for the migration map.
//
// Seeding: trial t of an experiment runs with trial_seed(base_seed, t)
// = base_seed + 7*t. The stride is fixed and documented so figures are
// reproducible from (figure, base_seed) alone; trials of one experiment
// never share a seed, and the default base seed 1000 reproduces the
// historical bench outputs. `--seed` on a bench binary replaces the base.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/registry.h"
#include "harness/scenario.h"
#include "sched/fluid.h"
#include "workload/arrivals.h"
#include "workload/workload.h"

namespace pdq::harness {

/// Default base seed; with the kTrialSeedStride ladder this reproduces
/// the pre-v2 bench seed sequence 1000, 1007, 1014, ...
inline constexpr std::uint64_t kDefaultBaseSeed = 1000;
inline constexpr std::uint64_t kTrialSeedStride = 7;

/// The documented seed ladder: trial t runs with base + 7*t.
constexpr std::uint64_t trial_seed(std::uint64_t base, int trial) {
  return base + kTrialSeedStride * static_cast<std::uint64_t>(trial);
}

// ---------------------------------------------------------------------------
// Topology + workload specs
// ---------------------------------------------------------------------------

/// A named topology recipe. The builder returns the server node ids.
struct TopologySpec {
  std::string name;
  TopologyBuilder build;

  static TopologySpec single_bottleneck(int n_senders,
                                        net::LinkDefaults d = {});
  static TopologySpec single_rooted_tree(int num_tors = 4,
                                         int servers_per_tor = 3);
  static TopologySpec fat_tree(int k);
  /// Spine-leaf fabric (net::build_spine_leaf); oversub = 1 is
  /// non-blocking. Name: "spine-leaf/<servers>[/os<oversub>]" — the
  /// oversubscription suffix keeps EngineCounterCache keys distinct.
  static TopologySpec spine_leaf(int spines, int tors, int servers_per_rack,
                                 double oversub = 1.0);
  static TopologySpec bcube(int n, int k);
  static TopologySpec dcell(int n, int l);
  static TopologySpec jellyfish(int num_switches, int ports, int net_ports,
                                std::uint64_t seed = 1);
  static TopologySpec custom(std::string name, TopologyBuilder build);
};

/// A named workload recipe: materializes FlowSpecs over the topology's
/// servers with the run's RNG (one fresh Rng per (point, trial)).
struct WorkloadSpec {
  using Fn = std::function<std::vector<net::FlowSpec>(
      const std::vector<net::NodeId>& servers, sim::Rng& rng)>;
  std::string name;
  Fn make;

  /// workload::make_flows over the given options.
  static WorkloadSpec flow_set(workload::FlowSetOptions opts,
                               std::string name = "flow_set");
  /// workload::make_open_loop_flows — open-loop arrivals (Poisson /
  /// deterministic / trace) with sizes from any SizeFn (typically an
  /// EmpiricalCdf::sampler()).
  static WorkloadSpec open_loop(workload::OpenLoopOptions opts,
                                std::string name = "open_loop");
  /// A verbatim flow list (src/dst must already be node ids).
  static WorkloadSpec fixed(std::vector<net::FlowSpec> flows,
                            std::string name = "fixed");
  static WorkloadSpec custom(std::string name, Fn make);
};

/// Everything one simulation run needs except the stack and the seed.
struct Scenario {
  TopologySpec topology;
  WorkloadSpec workload;
  RunOptions options;  // options.seed is overwritten per trial
};

// ---------------------------------------------------------------------------
// Query-aggregation scenario (the paper's S5.2 setting)
// ---------------------------------------------------------------------------

/// n deadline/no-deadline flows into one receiver over the
/// single-bottleneck topology. (Moved here from bench/bench_common.h.)
struct AggregationSpec {
  int num_flows = 5;
  std::int64_t size_lo = 2'000;
  std::int64_t size_hi = 198'000;
  bool deadlines = true;
  sim::Time deadline_mean = 20 * sim::kMillisecond;
  sim::Time deadline_floor = 3 * sim::kMillisecond;
};

/// Topology + workload for an AggregationSpec: min(n, 32) senders into
/// the last server, flow i from sender i mod senders.
Scenario aggregation_scenario(const AggregationSpec& a);

/// The fluid-model jobs for a flow set (Optimal normalization).
std::vector<sched::Job> to_jobs(const std::vector<net::FlowSpec>& flows);

// ---------------------------------------------------------------------------
// Metrics and columns
// ---------------------------------------------------------------------------

/// Everything a metric may look at for one run. `result` is null for
/// analytic columns (no simulation, e.g. the fluid-model Optimal).
struct RunContext {
  const RunResult* result = nullptr;
  const std::vector<net::FlowSpec>* flows = nullptr;
  const Scenario* scenario = nullptr;
  std::string stack;   // canonical stack name; empty for analytic columns
  std::string point;   // sweep-point label
  std::uint64_t seed = 0;
  int trial = 0;
};

using MetricFn = std::function<double(const RunContext&)>;

struct MetricSpec {
  std::string name;
  MetricFn fn;
};

namespace metrics {
MetricSpec mean_fct_ms();
MetricSpec max_fct_ms();
MetricSpec application_throughput();
MetricSpec completed();
/// mean FCT divided by the omniscient Optimal (fluid model) on the same
/// flow set; `bottleneck_bps` is the fluid link rate.
MetricSpec mean_fct_vs_optimal(double bottleneck_bps = 1e9);
/// Analytic columns: fluid-model Optimal on the materialized flow set.
MetricSpec optimal_application_throughput(double bottleneck_bps = 1e9);
MetricSpec optimal_mean_fct_ms(double bottleneck_bps = 1e9);
// Engine operation counters (single-core CI tracks perf by operation
// counts, never wall time). All read RunResult::engine. Under
// SweepRunner these are deterministic for any thread count — every
// sample runs on a cold PacketPool (SweepRunner::run_sample); a bare
// run_prepared() instead deltas the calling thread's pool, so
// packet_allocs there reflects pool warmth.
MetricSpec events_processed();
MetricSpec packet_allocs();
/// Fraction of packet acquires served from the pool free list, percent.
MetricSpec packet_recycle_percent();
/// Net events elided by per-hop transmit coalescing (node.cc).
MetricSpec events_coalesced();
/// Flow-state entries visited by switch-controller hot paths — flat per
/// packet when the PDQ switch fast path is O(1) amortized.
MetricSpec flowlist_scan_ops();
/// High-water mark of pending events during the run.
MetricSpec peak_pending_events();
/// High-water mark of in-flight packets (PacketPool live count).
MetricSpec pool_highwater();
/// High-water mark of live transport-agent footprint bytes — sublinear
/// in total flows under streaming mode, linear on the default path.
MetricSpec peak_flow_bytes();

// Steady-state (windowed) metrics for dynamic-traffic scenarios. Only
// flows whose start_time falls in the timeline's measurement window
// [warmup, measure_end) count (the whole run when the scenario has no
// timeline — see harness/timeline.h). The size-bucket variants further
// condition on spec.size_bytes in [lo, hi).
/// Mean FCT (ms) of completed in-window flows in the size bucket.
MetricSpec windowed_mean_fct_ms(
    std::int64_t bucket_lo = 0,
    std::int64_t bucket_hi = std::numeric_limits<std::int64_t>::max());
/// p99 FCT (ms, nearest-rank) of completed in-window flows in the bucket.
MetricSpec windowed_p99_fct_ms(
    std::int64_t bucket_lo = 0,
    std::int64_t bucket_hi = std::numeric_limits<std::int64_t>::max());
/// Flow goodput in Gbit/s: acked bytes of in-window flows over the span
/// from warmup until the last of them finished (so bytes delivered
/// after measure_end are never divided by a shorter window).
MetricSpec goodput_gbps();
/// Percent of in-window deadline flows that missed (terminated and
/// still-pending flows count as misses); 0 when none carry deadlines.
MetricSpec deadline_miss_percent();
}  // namespace metrics

/// One table column: usually a registry stack (plus overrides), measured
/// with `metric` (falling back to the spec's metric). Columns with no
/// stack are analytic (metric computed from the flow set alone); columns
/// with `evaluate` set bypass the packet engine entirely (e.g. flowsim).
struct Column {
  std::string label;
  std::string stack;      // registry name; empty = analytic or custom
  StackOptions options;
  MetricFn metric;        // null = ExperimentSpec::metric.fn
  std::function<double(const Scenario&, std::uint64_t seed)> evaluate;
};

/// Column running registry stack `name` with the default metric.
Column stack_column(std::string name);
Column stack_column(std::string label, std::string name,
                    StackOptions options = {}, MetricFn metric = nullptr);

// ---------------------------------------------------------------------------
// Sweep axis + the spec itself
// ---------------------------------------------------------------------------

/// One x-axis value: `apply` specializes the base scenario, `tune`
/// (optional) adjusts each column's stack options — for sweeps over
/// protocol parameters rather than workload parameters.
struct SweepPoint {
  std::string label;
  std::function<void(Scenario&)> apply;
  std::function<void(Column&)> tune;
};

struct ExperimentSpec {
  std::string name;        // file-safe id, e.g. "fig3a"
  std::string title;       // printed above the table
  std::string axis;        // x-axis label, e.g. "#flows"
  Scenario base;
  std::vector<Column> columns;
  std::vector<SweepPoint> points;
  MetricSpec metric = metrics::mean_fct_ms();  // per-column default
  int trials = 1;
  std::uint64_t base_seed = kDefaultBaseSeed;
  /// Non-null: every run uses streaming metrics (RunOptions::streaming)
  /// — O(1)-memory accumulators instead of per-flow result vectors.
  /// Applied after each SweepPoint's `apply`, so points that replace
  /// the scenario wholesale still stream. The windowed size-bucket
  /// metrics require their [lo, hi) buckets listed in the spec.
  std::shared_ptr<const stats::StreamingSpec> streaming_metrics;
  /// Non-null: every run uses the hybrid packet/fluid fast-forward
  /// backend (RunOptions::hybrid; see HybridSpec in harness/scenario.h).
  /// Requires streaming_metrics. Applied after each SweepPoint's
  /// `apply`, like streaming_metrics.
  std::shared_ptr<const HybridSpec> hybrid_backend;
  /// Non-null: every run injects this fault schedule (RunOptions::
  /// faults; see faults/fault_spec.h) and gets the default audit
  /// (watchdog + end-of-run invariants) unless the scenario sets its
  /// own RunOptions::audit. Applied after each SweepPoint's `apply`.
  std::shared_ptr<const faults::FaultSpec> fault_plane;
};

}  // namespace pdq::harness
