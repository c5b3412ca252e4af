// Hybrid packet/fluid backend (RunOptions::hybrid): the differential
// that pins it against the pure-packet engine on a small fabric, the
// deadline-flow carve-out (those never leave the packet engine), the
// streaming-mode requirement, and streaming mode's refusal of per-flow
// goodput series.
#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/experiment.h"
#include "stats/streaming.h"
#include "workload/arrivals.h"
#include "workload/workload.h"

namespace pdq::harness {
namespace {

/// Open-loop mix over a small fat-tree with sizes straddling the hybrid
/// eligibility threshold: mice stay pure packet, the bigger half runs
/// head -> fluid -> tail. No deadlines (deadline flows are pinned to
/// the packet engine by design; they get their own test).
Scenario hybrid_mix_scenario(int num_flows) {
  workload::OpenLoopOptions w;
  w.num_flows = num_flows;
  w.size = workload::uniform_size(2'000, 400'000);
  // Moderate load: the fluid middle models contention among fluid
  // flows, but packet-engine mice and fluid middles do not share
  // queues (the documented fidelity limit, docs/architecture.md) — at
  // saturation that coupling error dominates the big-flow tail.
  w.arrivals = workload::ArrivalProcess::poisson(400.0);
  w.pattern = workload::staggered_prob(0.5, 4);
  Scenario s;
  s.topology = TopologySpec::fat_tree(4);
  s.workload =
      WorkloadSpec::open_loop(w, "hyb-mix/" + std::to_string(num_flows));
  s.options.horizon = 30 * sim::kSecond;
  s.options.streaming = std::make_shared<const stats::StreamingSpec>();
  return s;
}

/// Small segments so a meaningful share of the distribution above is
/// fluid-eligible on a test-sized run.
std::shared_ptr<const HybridSpec> small_hybrid() {
  auto h = std::make_shared<HybridSpec>();
  h->head_bytes = 16 * 1024;
  h->tail_bytes = 16 * 1024;
  h->min_fluid_bytes = 64 * 1024;
  // FCTs on this fabric are a few ms: the default 1 ms grid would
  // quantize away most of the fluid middle. Production scale points
  // keep the coarser default.
  h->grid = 100 * sim::kMicrosecond;
  return h;
}

SweepRunner::SampleRun run_hybrid(Scenario sc, const std::string& stack,
                                  std::shared_ptr<const HybridSpec> hyb) {
  sc.options.hybrid = std::move(hyb);
  return SweepRunner::run_sample(sc, stack, {}, kDefaultBaseSeed);
}

TEST(HybridBackend, MatchesPacketEngineAggregatesOnFatTree) {
  // The acceptance differential: hybrid mean/p99 FCT within a modest
  // band of the pure-packet engine, with the flow population conserved
  // exactly. The fluid middle skips per-packet dynamics, so exact
  // equality is not expected — closeness is the correctness claim.
  const Scenario sc = hybrid_mix_scenario(400);
  for (const char* stack : {"PDQ(Full)", "RCP"}) {
    const auto pkt = SweepRunner::run_sample(sc, stack, {}, kDefaultBaseSeed);
    const auto hyb = run_hybrid(sc, stack, small_hybrid());
    ASSERT_NE(pkt.result.streaming, nullptr) << stack;
    ASSERT_NE(hyb.result.streaming, nullptr) << stack;
    // Every flow accounted for, none double-counted across segments.
    EXPECT_EQ(pkt.result.streaming->flows(), hyb.result.streaming->flows())
        << stack;
    EXPECT_EQ(pkt.result.completed(), hyb.result.completed()) << stack;
    const double pkt_mean = pkt.result.mean_fct_ms();
    const double hyb_mean = hyb.result.mean_fct_ms();
    ASSERT_GT(pkt_mean, 0.0) << stack;
    EXPECT_NEAR(hyb_mean, pkt_mean, 0.15 * pkt_mean) << stack;
    const double pkt_p99 = pkt.result.streaming->windowed_p99_fct_ms();
    const double hyb_p99 = hyb.result.streaming->windowed_p99_fct_ms();
    ASSERT_GT(pkt_p99, 0.0) << stack;
    EXPECT_NEAR(hyb_p99, pkt_p99, 0.25 * pkt_p99) << stack;
  }
}

TEST(HybridBackend, DeadlineFlowsNeverLeaveThePacketEngine) {
  // Every flow in the aggregation scenario carries a deadline, so none
  // is fluid-eligible: the hybrid run must be *identical* to the plain
  // streaming run, not merely close — same events, same aggregates.
  AggregationSpec a;
  a.num_flows = 8;
  Scenario sc = aggregation_scenario(a);
  sc.options.streaming = std::make_shared<const stats::StreamingSpec>();
  const auto plain = SweepRunner::run_sample(sc, "PDQ(Full)", {}, kDefaultBaseSeed);
  const auto hyb = run_hybrid(sc, "PDQ(Full)", std::make_shared<HybridSpec>());
  ASSERT_NE(plain.result.streaming, nullptr);
  ASSERT_NE(hyb.result.streaming, nullptr);
  EXPECT_EQ(plain.result.streaming->flows(), hyb.result.streaming->flows());
  EXPECT_EQ(plain.result.completed(), hyb.result.completed());
  EXPECT_EQ(plain.result.mean_fct_ms(), hyb.result.mean_fct_ms());
  EXPECT_EQ(plain.result.max_fct_ms(), hyb.result.max_fct_ms());
  EXPECT_EQ(plain.result.application_throughput(),
            hyb.result.application_throughput());
  EXPECT_EQ(plain.result.engine.events_executed,
            hyb.result.engine.events_executed);
}

TEST(HybridBackend, MiceBelowThresholdAreExactlyPacket) {
  // All flows below min_fluid_bytes: same identity guarantee as the
  // deadline carve-out, via the size gate.
  workload::OpenLoopOptions w;
  w.num_flows = 120;
  w.size = workload::uniform_size(2'000, 30'000);  // all < 64 KiB gate
  w.arrivals = workload::ArrivalProcess::poisson(2000.0);
  w.pattern = workload::staggered_prob(0.5, 4);
  Scenario sc;
  sc.topology = TopologySpec::fat_tree(4);
  sc.workload = WorkloadSpec::open_loop(w, "hyb-mice/120");
  sc.options.horizon = 30 * sim::kSecond;
  sc.options.streaming = std::make_shared<const stats::StreamingSpec>();
  const auto plain = SweepRunner::run_sample(sc, "PDQ(Full)", {}, kDefaultBaseSeed);
  const auto hyb = run_hybrid(sc, "PDQ(Full)", small_hybrid());
  EXPECT_EQ(plain.result.completed(), hyb.result.completed());
  EXPECT_EQ(plain.result.mean_fct_ms(), hyb.result.mean_fct_ms());
  EXPECT_EQ(plain.result.engine.events_executed,
            hyb.result.engine.events_executed);
}

TEST(HybridBackendDeathTest, RequiresStreamingMode) {
  // Per-flow result vectors would defeat the O(active) memory goal;
  // the harness refuses the combination outright.
  Scenario sc = hybrid_mix_scenario(10);
  sc.options.streaming = nullptr;
  sc.options.hybrid = small_hybrid();
  EXPECT_EXIT(SweepRunner::run_sample(sc, "PDQ(Full)", {}, kDefaultBaseSeed),
              ::testing::ExitedWithCode(2), "hybrid");
}

TEST(StreamingModeDeathTest, RejectsPerFlowSeries) {
  // The goodput sampler reads every flow's sender on every bin; streaming
  // builds senders at flow start and retires them at termination. The
  // check must hold in every build type, not only under assert().
  Scenario sc = hybrid_mix_scenario(10);
  sc.options.per_flow_series = true;
  EXPECT_EXIT(SweepRunner::run_sample(sc, "PDQ(Full)", {}, kDefaultBaseSeed),
              ::testing::ExitedWithCode(2), "per_flow_series");
}

}  // namespace
}  // namespace pdq::harness
