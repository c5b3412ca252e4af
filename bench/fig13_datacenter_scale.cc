// Figure 13 (beyond-paper): datacenter-scale engine sweep.
//
// Runs thousands of flows over k-ary fat-trees and a DCell server-centric
// fabric — the regime inter-datacenter studies (Zeng) and DCell analyses
// evaluate in — to exercise the pooled-packet/lean-event-queue hot path
// at production scale. Perf is reported as *operation counts*
// (events processed, events coalesced, flow-list scan ops, packet
// allocations, pool recycle rate): this repository's CI is single-core,
// so wall time is never asserted or reported as a metric.
//
// Table 1 (fig13_datacenter_scale): flows completed per stack.
// Table 2 (fig13_engine_counters): engine counters for the lead stack
// via the shared bench_common.h counter columns, computed once per point
// through a memoized EngineCounterCache and exported as the
// BENCH_engine.json CI artifact (--json). `scan/pkt` staying flat as the
// flow count grows 1k -> 10k is the O(1)-amortized switch fast path;
// `coalesced` counts the per-hop events the transmitter elided.
// Table 3 (fig13_scale_streaming, --full or --scale): the 100k-flow
// streaming-mode scale point — web-search sizes scaled 1:100 arriving
// open-loop on a k=8 fat-tree, run with ExperimentSpec::streaming_metrics
// so completed flows retire and per-flow memory stays bounded by the
// *active* flow population. Every run chains its flows' start (or,
// streaming, creation) events through reserved sequence numbers
// (scenario.cc), so peak_pending is O(active) too; it joins
// peak_flow_bytes and pool_highwater as gated CI artifacts.
// Table 4 (fig13_scale_hybrid, --full or --scale): the hybrid
// packet/fluid backend (RunOptions::hybrid) — elephants cross the fluid
// middle at their equilibrium rates while mice and every scheduling
// decision stay packet-level. Row 1 repeats Table 3's exact workload
// with hybrid on, so its ev/flow drop is the like-for-like fast-forward
// win; row 2 is the million-flow k=16 point. ev/flow is the headline
// gated counter.
#include <memory>

#include "bench_common.h"
#include "stats/streaming.h"
#include "workload/arrivals.h"

using namespace pdq;
using namespace pdq::bench;

namespace {

harness::Scenario dc_scenario(harness::TopologySpec topo, int num_flows) {
  workload::FlowSetOptions w;
  w.num_flows = num_flows;
  // Mice-dominated short transfers arriving as a Poisson process: the
  // flow count, not per-flow byte volume, is the scale axis.
  w.size = workload::uniform_size(2'000, 30'000);
  w.pattern = workload::staggered_prob(0.5, 4);
  w.arrival_rate_per_sec = 5000.0;
  harness::Scenario s;
  s.topology = std::move(topo);
  s.workload = harness::WorkloadSpec::flow_set(
      w, "dc-mice/" + std::to_string(num_flows));
  s.options.horizon = 120 * sim::kSecond;
  return s;
}

struct Point {
  std::string label;
  harness::TopologySpec topo;
  int flows;
};

// The scale-point scenario: `num_flows` open-loop arrivals on a k=8
// fat-tree with web-search sizes scaled 1:100 (every CDF knot divided by
// 100, mean ~17 KB) so 100k flows stay a minutes-scale single-core run
// while keeping the mice/elephant shape. The flow count is baked into
// the workload name (EngineCounterCache key contract).
harness::Scenario scale_scenario(int num_flows, int fat_tree_k = 8,
                                 double arrivals_per_sec = 10'000.0) {
  // Keep the CDF alive for the loop: points() returns a reference into
  // the object, so iterating web_search().points() directly would walk
  // a destroyed temporary.
  const workload::EmpiricalCdf ws = workload::EmpiricalCdf::web_search();
  std::vector<workload::EmpiricalCdf::Point> pts;
  for (const auto& p : ws.points()) {
    pts.push_back({p.bytes / 100.0, p.cum});
  }
  workload::OpenLoopOptions w;
  w.num_flows = num_flows;
  w.size = workload::EmpiricalCdf::from_points(std::move(pts)).sampler();
  w.arrivals = workload::ArrivalProcess::poisson(arrivals_per_sec);
  w.pattern = workload::staggered_prob(0.5, 4);
  harness::Scenario s;
  s.topology = harness::TopologySpec::fat_tree(fat_tree_k);
  const std::string count = num_flows >= 1'000'000
                                ? std::to_string(num_flows / 1'000'000) + "M"
                                : std::to_string(num_flows / 1000) + "k";
  s.workload = harness::WorkloadSpec::open_loop(w, "ws-scaled100/" + count);
  s.options.horizon = 60 * sim::kSecond;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  const std::uint64_t base_seed = args.seed_or();

  std::vector<Point> points = {
      {"ft4/1k", harness::TopologySpec::fat_tree(4), 1000},
      {"dcell21/1k", harness::TopologySpec::dcell(2, 1), 1000},
      {"ft8/10k", harness::TopologySpec::fat_tree(8), 10000},
  };
  if (args.full) {
    points.insert(points.end(),
                  {{"ft4/5k", harness::TopologySpec::fat_tree(4), 5000},
                   {"ft8/5k", harness::TopologySpec::fat_tree(8), 5000},
                   {"dcell21/10k", harness::TopologySpec::dcell(2, 1),
                    10000}});
  }

  // --- Table 1: flows completed per stack ---
  std::printf(
      "Fig 13: datacenter-scale sweep — flows completed (of scheduled)\n"
      "per protocol stack; fat-tree k=4/8 and DCell(2,1).\n\n");
  harness::ExperimentSpec spec;
  spec.name = "fig13_datacenter_scale";
  spec.axis = "topology/flows";
  spec.metric = harness::metrics::completed();
  spec.trials = 1;
  spec.base_seed = base_seed;
  spec.base = dc_scenario(harness::TopologySpec::fat_tree(4), 1000);
  for (const char* name : {"PDQ(Full)", "RCP", "TCP"}) {
    spec.columns.push_back(harness::stack_column(name));
  }
  for (const auto& pt : points) {
    harness::SweepPoint p;
    p.label = pt.label;
    p.apply = [topo = pt.topo, flows = pt.flows](harness::Scenario& s) {
      s = dc_scenario(topo, flows);
    };
    spec.points.push_back(std::move(p));
  }
  run_and_report(spec, args, " %12.0f");

  // --- Table 2: engine operation counters, lead stack (PDQ(Full)) ---
  std::printf(
      "\nFig 13 engine counters (PDQ(Full)): operation counts, the perf\n"
      "currency on single-core CI (no wall-time metrics anywhere).\n\n");
  auto cache = std::make_shared<EngineCounterCache>();
  harness::ExperimentSpec counters;
  counters.name = "fig13_engine_counters";
  counters.axis = "topology/flows";
  counters.metric = harness::metrics::events_processed();
  counters.trials = 1;
  counters.base_seed = base_seed;
  counters.base = spec.base;
  counters.columns = engine_counter_columns(cache, "PDQ(Full)");
  for (const auto& pt : points) {
    harness::SweepPoint p;
    p.label = pt.label;
    p.apply = [topo = pt.topo, flows = pt.flows](harness::Scenario& s) {
      s = dc_scenario(topo, flows);
    };
    counters.points.push_back(std::move(p));
  }
  run_and_report(counters, args, " %12.1f");
  std::printf(
      "\nExpected shape: events scale ~linearly with flows but ev/flow\n"
      "shrinks with idle-link tick dormancy; coalesced counts elided\n"
      "per-hop events; scan/pkt stays flat as flows grow 1k->10k (the\n"
      "O(1)-amortized switch fast path); pkt_allocs (cold pool) is the\n"
      "run's in-flight packet high-water mark — recycle%% near 100 means\n"
      "steady state allocates nothing.\n");

  // --- Table 3: 100k-flow streaming-mode scale point ---
  if (args.full || args.scale) {
    std::printf(
        "\nFig 13 scale point (streaming metrics, PDQ(Full)): 100k\n"
        "open-loop flows, web-search sizes scaled 1:100, fat-tree k=8.\n"
        "Flows retire at termination and creation events are chained\n"
        "through reserved sequence numbers, so peak_flow_bytes AND\n"
        "peak_pending both track the *active* population.\n\n");
    auto scale_cache = std::make_shared<EngineCounterCache>();
    harness::ExperimentSpec scale;
    scale.name = "fig13_scale_streaming";
    scale.axis = "flows";
    scale.metric = harness::metrics::events_processed();
    scale.trials = 1;
    scale.base_seed = base_seed;
    scale.base = scale_scenario(100'000);
    scale.streaming_metrics = std::make_shared<const stats::StreamingSpec>();
    scale.columns = engine_counter_columns(scale_cache, "PDQ(Full)");
    harness::SweepPoint scale_pt;
    scale_pt.label = "ft8/100k";
    scale.points.push_back(std::move(scale_pt));
    run_and_report(scale, args, " %12.1f");
  }

  // --- Table 4: 1M-flow hybrid packet/fluid scale point ---
  if (args.full || args.scale) {
    std::printf(
        "\nFig 13 hybrid scale points (PDQ(Full)): hybrid packet/fluid\n"
        "backend — flows >= 128 KiB cross the fluid middle at\n"
        "equilibrium rates (32 KiB packet head/tail keep admission,\n"
        "preemption and the completion handshake packet-exact); mice\n"
        "and deadline flows never leave the packet engine. Row 1 is the\n"
        "*identical* workload as the Table 3 pure-packet run, so its\n"
        "ev/flow drop is the backend's fast-forward win like-for-like;\n"
        "row 2 is the million-flow k=16 point that is only tractable\n"
        "with the fluid middle carrying the elephant bytes.\n\n");
    auto hybrid = std::make_shared<harness::HybridSpec>();
    hybrid->head_bytes = 32 * 1024;
    hybrid->tail_bytes = 32 * 1024;
    hybrid->min_fluid_bytes = 128 * 1024;
    auto hybrid_cache = std::make_shared<EngineCounterCache>();
    harness::ExperimentSpec mil;
    mil.name = "fig13_scale_hybrid";
    mil.axis = "flows";
    mil.metric = harness::metrics::events_processed();
    mil.trials = 1;
    mil.base_seed = base_seed;
    mil.base = scale_scenario(100'000);
    mil.streaming_metrics = std::make_shared<const stats::StreamingSpec>();
    mil.hybrid_backend = hybrid;
    mil.columns = engine_counter_columns(hybrid_cache, "PDQ(Full)");
    harness::SweepPoint same_as_t3;
    same_as_t3.label = "ft8/100k";
    mil.points.push_back(std::move(same_as_t3));
    harness::SweepPoint mil_pt;
    mil_pt.label = "ft16/1M";
    mil_pt.apply = [](harness::Scenario& s) {
      s = scale_scenario(1'000'000, /*fat_tree_k=*/16,
                         /*arrivals_per_sec=*/100'000.0);
    };
    mil.points.push_back(std::move(mil_pt));
    run_and_report(mil, args, " %12.1f");
  }
  return 0;
}
