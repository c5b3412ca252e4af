// Streaming-metrics mode (RunOptions::streaming): equivalence with the
// per-flow vector path, sketch-quantile error bound on a real run,
// determinism across SweepRunner thread counts, memory-peak counters,
// and smoke coverage for the non-retiring stacks (DCTCP, M-PDQ) and
// timeline runs.
#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "harness/experiment.h"
#include "harness/timeline.h"
#include "stats/streaming.h"
#include "workload/arrivals.h"
#include "workload/workload.h"

namespace pdq::harness {
namespace {

/// Open-loop mice over a small fat-tree: flows arrive spread over time,
/// so the active population is far below the total — the regime the
/// streaming path's lazy-materialize/retire machinery targets.
Scenario open_loop_scenario(int num_flows, double rate_per_sec = 2000.0) {
  workload::OpenLoopOptions w;
  w.num_flows = num_flows;
  w.size = workload::uniform_size(2'000, 60'000);
  w.arrivals = workload::ArrivalProcess::poisson(rate_per_sec);
  w.pattern = workload::staggered_prob(0.5, 4);
  Scenario s;
  s.topology = TopologySpec::fat_tree(4);
  s.workload = WorkloadSpec::open_loop(
      w, "ol-mice/" + std::to_string(num_flows));
  s.options.horizon = 30 * sim::kSecond;
  return s;
}

SweepRunner::SampleRun run_mode(const Scenario& base, const std::string& stack,
                                bool streaming,
                                std::uint64_t seed = kDefaultBaseSeed) {
  Scenario sc = base;
  if (streaming) {
    sc.options.streaming = std::make_shared<const stats::StreamingSpec>();
  }
  return SweepRunner::run_sample(sc, stack, {}, seed);
}

TEST(StreamingMode, AggregatesMatchVectorPathOnAggregationScenario) {
  // fig1/fig3d-style closed scenario, three stacks: the RunResult helper
  // values must agree between representations. Counts, maxima and byte
  // sums are exactly order-independent; the FCT mean is too, now that
  // the streaming side accumulates with a Neumaier-compensated sum —
  // so everything is pinned with exact equality.
  AggregationSpec a;
  a.num_flows = 8;
  const Scenario sc = aggregation_scenario(a);
  for (const char* stack : {"PDQ(Full)", "TCP", "RCP"}) {
    const auto vec = run_mode(sc, stack, false);
    const auto str = run_mode(sc, stack, true);
    ASSERT_NE(str.result.streaming, nullptr) << stack;
    EXPECT_TRUE(str.result.flows.empty()) << stack;
    EXPECT_FALSE(vec.result.flows.empty()) << stack;
    EXPECT_EQ(vec.result.flows.size(), str.result.streaming->flows());
    EXPECT_EQ(vec.result.completed(), str.result.completed()) << stack;
    EXPECT_EQ(vec.result.mean_fct_ms(), str.result.mean_fct_ms()) << stack;
    EXPECT_EQ(vec.result.max_fct_ms(), str.result.max_fct_ms()) << stack;
    EXPECT_EQ(vec.result.application_throughput(),
              str.result.application_throughput())
        << stack;
  }
}

TEST(StreamingMode, WindowedMetricsMatchVectorPathOnOpenLoopRun) {
  const Scenario sc = open_loop_scenario(300);
  const auto vec = run_mode(sc, "PDQ(Full)", false);
  const auto str = run_mode(sc, "PDQ(Full)", true);

  RunContext vctx, sctx;
  vctx.result = &vec.result;
  vctx.scenario = &sc;
  sctx.result = &str.result;
  sctx.scenario = &sc;

  // Goodput: integer byte sums on both paths, identical final division.
  EXPECT_DOUBLE_EQ(metrics::goodput_gbps().fn(vctx),
                   metrics::goodput_gbps().fn(sctx));
  // Deadline-miss: integer counts (no deadlines here: both 0).
  EXPECT_DOUBLE_EQ(metrics::deadline_miss_percent().fn(vctx),
                   metrics::deadline_miss_percent().fn(sctx));
  // Windowed mean: same sample set, exactly — the streaming side's
  // compensated sum reproduces the vector path's value bit-for-bit.
  EXPECT_EQ(metrics::windowed_mean_fct_ms().fn(vctx),
            metrics::windowed_mean_fct_ms().fn(sctx));

  // p99: the sketch estimate is within the documented relative-error
  // bound of the exact nearest-rank statistic the vector path computes.
  const double exact = metrics::windowed_p99_fct_ms().fn(vctx);
  const double est = metrics::windowed_p99_fct_ms().fn(sctx);
  ASSERT_GT(exact, 0.0);
  EXPECT_LE(std::abs(est - exact),
            str.result.streaming->quantile_alpha() * exact);
}

TEST(StreamingMode, SweepResultsIdenticalForAnyThreadCount) {
  ExperimentSpec spec;
  spec.name = "streaming_determinism";
  spec.axis = "#flows";
  spec.metric = metrics::windowed_p99_fct_ms();
  spec.trials = 2;
  spec.base = open_loop_scenario(100);
  spec.streaming_metrics = std::make_shared<const stats::StreamingSpec>();
  spec.columns.push_back(stack_column("PDQ(Full)"));
  spec.columns.push_back(stack_column("TCP"));
  for (int n : {60, 120}) {
    SweepPoint p;
    p.label = std::to_string(n);
    p.apply = [n](Scenario& s) { s = open_loop_scenario(n); };
    spec.points.push_back(std::move(p));
  }
  const auto serial = SweepRunner(1).run(spec);
  const auto parallel = SweepRunner(4).run(spec);
  for (std::size_t p = 0; p < serial.samples.size(); ++p) {
    for (std::size_t c = 0; c < serial.samples[p].size(); ++c) {
      for (std::size_t t = 0; t < serial.samples[p][c].size(); ++t) {
        EXPECT_EQ(serial.samples[p][c][t], parallel.samples[p][c][t])
            << "point " << p << " column " << c << " trial " << t;
      }
    }
  }
}

TEST(StreamingMode, MergedStreamingIsThreadCountInvariant) {
  const Scenario sc = open_loop_scenario(80);
  const stats::StreamingSpec spec;
  const auto a =
      SweepRunner(1).merged_streaming(sc, "PDQ(Full)", {}, 3, spec);
  const auto b =
      SweepRunner(4).merged_streaming(sc, "PDQ(Full)", {}, 3, spec);
  EXPECT_EQ(a.flows(), 240u);
  EXPECT_EQ(a.flows(), b.flows());
  EXPECT_EQ(a.completed(), b.completed());
  // Merged in trial order on both runners: bit-identical, not just near.
  EXPECT_EQ(a.mean_fct_ms(), b.mean_fct_ms());
  EXPECT_EQ(a.windowed_p99_fct_ms(), b.windowed_p99_fct_ms());
  EXPECT_EQ(a.goodput_gbps(), b.goodput_gbps());
}

TEST(StreamingMode, MemoryPeakCountersArePopulated) {
  const auto vec = run_mode(open_loop_scenario(100), "PDQ(Full)", false);
  EXPECT_GT(vec.result.engine.peak_pending_events, 0u);
  EXPECT_GT(vec.result.engine.pool_highwater, 0u);
  EXPECT_GT(vec.result.engine.peak_flow_bytes, 0u);
  // Pool high-water never exceeds total constructions on a cold pool.
  EXPECT_LE(vec.result.engine.pool_highwater,
            vec.result.engine.packet_allocs);
}

TEST(StreamingMode, PeakFlowBytesTracksActiveNotTotalFlows) {
  // 400 spread-out mice: the default path materializes all agents up
  // front (peak ~ total), streaming materializes at start and retires at
  // termination (peak ~ active). The gap is the subsystem's raison
  // d'etre, so assert a wide margin, not just "<".
  const Scenario sc = open_loop_scenario(400, 500.0);
  const auto vec = run_mode(sc, "PDQ(Full)", false);
  const auto str = run_mode(sc, "PDQ(Full)", true);
  EXPECT_EQ(vec.result.completed(), str.result.completed());
  ASSERT_GT(vec.result.engine.peak_flow_bytes, 0u);
  ASSERT_GT(str.result.engine.peak_flow_bytes, 0u);
  EXPECT_LT(str.result.engine.peak_flow_bytes,
            vec.result.engine.peak_flow_bytes / 4);
}

TEST(StreamingMode, PeakPendingEventsTrackActiveNotTotalFlows) {
  // Flow start events used to be scheduled up front, so the pending-
  // event peak was O(total flows) even when arrivals spread over 30 s.
  // Both paths now chain the initial flow set's start (default) or
  // creation (streaming) events through reserved sequence numbers
  // (tie-break order unchanged): the peak follows the *active*
  // population in either mode.
  const Scenario sc = open_loop_scenario(2000, 500.0);
  const auto vec = run_mode(sc, "PDQ(Full)", false);
  const auto str = run_mode(sc, "PDQ(Full)", true);
  EXPECT_EQ(vec.result.completed(), str.result.completed());
  EXPECT_LT(vec.result.engine.peak_pending_events, 500u);
  EXPECT_LT(str.result.engine.peak_pending_events, 500u);
}

TEST(StreamingMode, NonRetiringStacksRunToCompletion) {
  // DCTCP receivers and M-PDQ (subflow-owning senders) never retire —
  // streaming mode must still aggregate correctly, just without the
  // memory win. Equivalence against the vector path covers both.
  AggregationSpec a;
  a.num_flows = 6;
  a.deadlines = false;
  const Scenario sc = aggregation_scenario(a);
  for (const char* stack : {"DCTCP", "M-PDQ"}) {
    const auto vec = run_mode(sc, stack, false);
    const auto str = run_mode(sc, stack, true);
    ASSERT_NE(str.result.streaming, nullptr) << stack;
    EXPECT_EQ(vec.result.completed(), str.result.completed()) << stack;
    EXPECT_DOUBLE_EQ(vec.result.mean_fct_ms(), str.result.mean_fct_ms())
        << stack;
  }
}

TEST(StreamingMode, TimelineWindowFeedsTheStreamingWindow) {
  // A measurement window plus an incast burst: windowed aggregates must
  // agree between representations (the streaming window is derived from
  // the same TimelineSpec fields the vector metrics read).
  Scenario sc = open_loop_scenario(150);
  auto tl = std::make_shared<TimelineSpec>();
  tl->incast(20 * sim::kMillisecond, 8, 20'000);
  tl->window(10 * sim::kMillisecond, 20 * sim::kSecond);
  sc.options.timeline = tl;
  const auto vec = run_mode(sc, "PDQ(Full)", false);
  const auto str = run_mode(sc, "PDQ(Full)", true);
  ASSERT_NE(str.result.streaming, nullptr);

  RunContext vctx, sctx;
  vctx.result = &vec.result;
  vctx.scenario = &sc;
  sctx.result = &str.result;
  sctx.scenario = &sc;
  EXPECT_DOUBLE_EQ(metrics::goodput_gbps().fn(vctx),
                   metrics::goodput_gbps().fn(sctx));
  EXPECT_EQ(metrics::windowed_mean_fct_ms().fn(vctx),
            metrics::windowed_mean_fct_ms().fn(sctx));
  EXPECT_EQ(vec.result.completed(), str.result.completed());
}

}  // namespace
}  // namespace pdq::harness
