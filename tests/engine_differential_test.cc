// The differential test wall: every registry stack, run on fig1/fig3d/
// fig4-style scenarios, must reproduce the exact full-precision numbers
// recorded from the pre-overhaul engine (std::function binary-heap event
// queue, shared_ptr packets, per-packet route vectors). Any event
// reordering, RNG drift, or stale pooled-packet state breaks these
// comparisons at DOUBLE_EQ precision.
//
// Golden values were captured at commit "PR 2" (the last pre-overhaul
// engine) with the capture driver documented in docs/architecture.md
// ("Engine internals & performance"): trials via SweepRunner::average,
// base seed 1000, harness trial-seed ladder.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "workload/workload.h"

namespace pdq {
namespace {

// ---------------------------------------------------------------------------
// Scenario definitions (identical to the capture driver)
// ---------------------------------------------------------------------------

/// Fig 1: the 3-flow motivating example (1/2/3 MB, deadlines 1/4/6 s) on
/// a 1 MB/s single bottleneck, packet level.
harness::Scenario fig1_scenario() {
  const std::int64_t kUnit = 1'000'000;
  net::LinkDefaults d;
  d.rate_bps = 8e6;  // 1 MB per second
  harness::Scenario s;
  s.topology = harness::TopologySpec::custom(
      "fig1", [d](net::Topology& t) {
        return net::build_single_bottleneck(t, 3, d);
      });
  std::vector<net::FlowSpec> flows;
  const sim::Time deadlines[3] = {sim::from_seconds(1.0),
                                  sim::from_seconds(4.0),
                                  sim::from_seconds(6.0)};
  for (int i = 0; i < 3; ++i) {
    net::FlowSpec f;
    f.id = i + 1;
    f.src = static_cast<net::NodeId>(i + 1);  // hosts 1..3; switch is 0
    f.dst = 4;                                // receiver host
    f.size_bytes = (i + 1) * kUnit;
    f.start_time = static_cast<sim::Time>(i) * sim::kMillisecond;
    f.deadline = deadlines[i] - f.start_time;
    flows.push_back(f);
  }
  s.workload = harness::WorkloadSpec::fixed(std::move(flows), "fig1-flows");
  s.options.horizon = 30 * sim::kSecond;
  return s;
}

/// Fig 3d: 10-flow aggregation, no deadlines.
harness::Scenario fig3d_scenario() {
  harness::AggregationSpec a;
  a.num_flows = 10;
  a.deadlines = false;
  return harness::aggregation_scenario(a);
}

/// Fig 4: stride(1) / random permutation, 24 flows, 12-server tree.
harness::Scenario fig4_scenario(bool stride) {
  workload::FlowSetOptions w;
  w.num_flows = 24;
  w.size = workload::uniform_size(2'000, 198'000);
  w.pattern = stride ? workload::stride(1) : workload::random_permutation();
  harness::Scenario s;
  s.topology = harness::TopologySpec::single_rooted_tree();
  s.workload = harness::WorkloadSpec::flow_set(
      w, stride ? "stride1" : "randperm");
  s.options.horizon = 30 * sim::kSecond;
  return s;
}

// ---------------------------------------------------------------------------
// Goldens: one row per (stack, scenario), full double precision
// ---------------------------------------------------------------------------

// gtest names each ctest case after the raw bytes of its parameter, so
// Golden holds no pointer and no padding: a string pointer moves with ASLR
// and padding is uninitialised, and either would rename the cases on every
// run of the binary. The stack is an index into kStackNames instead.
enum class Stack : std::int64_t {
  kPdqFull, kPdqEsEt, kPdqEs, kPdqBasic, kD3, kRcp, kTcp, kMpdq
};
const char* const kStackNames[] = {
    "PDQ(Full)", "PDQ(ES+ET)", "PDQ(ES)", "PDQ(Basic)",
    "D3",        "RCP",        "TCP",     "M-PDQ"};

struct Golden {
  Stack stack;
  double fig1_appthroughput;  // 1 trial, seed 1000
  double fig3d_fct;           // 2 trials, seeds 1000/1007
  double fig4_stride_fct;     // 1 trial, seed 1000
  double fig4_randperm_fct;   // 1 trial, seed 1000

  const char* name() const {
    return kStackNames[static_cast<std::size_t>(stack)];
  }
};

const Golden kGoldens[] = {
    {Stack::kPdqFull, 66.666666666666671, 4.7667374000000002,
     1.5229879166666669, 4.0682009999999993},
    {Stack::kPdqEsEt, 66.666666666666671, 4.7620338999999996,
     1.5229879166666669, 4.0682009999999993},
    {Stack::kPdqEs, 33.333333333333336, 4.7620338999999996,
     1.5229879166666669, 4.0682009999999993},
    {Stack::kPdqBasic, 33.333333333333336, 4.8113190000000001,
     1.5627962083333331, 4.1095402499999993},
    {Stack::kD3, 0.0, 6.5562221000000012, 1.725772375, 4.2982020833333339},
    {Stack::kRcp, 0.0, 6.9478305000000002, 1.6383624583333336,
     4.1147056250000018},
    {Stack::kTcp, 0.0, 6.1445348000000006, 1.8418726666666663,
     4.4917823333333331},
    {Stack::kMpdq, 66.666666666666671, 6.7396867499999988,
     1.7344980000000001, 4.5061201249999998},
};

class EngineDifferential : public ::testing::TestWithParam<Golden> {
 protected:
  harness::SweepRunner runner_{1};
};

TEST_P(EngineDifferential, Fig1ApplicationThroughputMatchesPreOverhaul) {
  const Golden& g = GetParam();
  EXPECT_DOUBLE_EQ(
      runner_.average(fig1_scenario(), harness::stack_column(g.name()), 1,
                      1000,
                      harness::metrics::application_throughput().fn),
      g.fig1_appthroughput);
}

TEST_P(EngineDifferential, Fig3dMeanFctMatchesPreOverhaul) {
  const Golden& g = GetParam();
  EXPECT_DOUBLE_EQ(
      runner_.average(fig3d_scenario(), harness::stack_column(g.name()), 2,
                      1000, harness::metrics::mean_fct_ms().fn),
      g.fig3d_fct);
}

TEST_P(EngineDifferential, Fig4StrideMeanFctMatchesPreOverhaul) {
  const Golden& g = GetParam();
  EXPECT_DOUBLE_EQ(
      runner_.average(fig4_scenario(true), harness::stack_column(g.name()),
                      1, 1000, harness::metrics::mean_fct_ms().fn),
      g.fig4_stride_fct);
}

TEST_P(EngineDifferential, Fig4RandPermMeanFctMatchesPreOverhaul) {
  const Golden& g = GetParam();
  EXPECT_DOUBLE_EQ(
      runner_.average(fig4_scenario(false), harness::stack_column(g.name()),
                      1, 1000, harness::metrics::mean_fct_ms().fn),
      g.fig4_randperm_fct);
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = info.param.name();
  for (char& c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, EngineDifferential,
                         ::testing::ValuesIn(kGoldens), golden_name);

// The engine must be deterministic run-to-run, not just vs the goldens:
// two back-to-back runs in one process (pool warm vs cold) must agree.
TEST(EngineDifferential, WarmPoolRunIsIdenticalToColdPoolRun) {
  harness::SweepRunner runner(1);
  const double cold =
      runner.average(fig4_scenario(false),
                     harness::stack_column("PDQ(Full)"), 1, 1000,
                     harness::metrics::mean_fct_ms().fn);
  const double warm =
      runner.average(fig4_scenario(false),
                     harness::stack_column("PDQ(Full)"), 1, 1000,
                     harness::metrics::mean_fct_ms().fn);
  EXPECT_DOUBLE_EQ(cold, warm);
}

}  // namespace
}  // namespace pdq
