// Differential tests: the packet-level simulator, the flow-level
// simulator and the fluid schedulers must agree on shapes and, where the
// models coincide, on numbers.
#include <gtest/gtest.h>

#include "flowsim/flowsim.h"
#include "sched/fluid.h"
#include "test_util.h"
#include "workload/workload.h"

namespace pdq {
namespace {

// Every field is 64-bit so the struct has no padding: gtest names each
// ctest case after the parameter's raw bytes, and uninitialised padding
// would rename the cases on every run of the binary.
struct CaseParam {
  std::int64_t flows;
  std::int64_t size;
  std::uint64_t seed;
};

class Differential : public ::testing::TestWithParam<CaseParam> {};

TEST_P(Differential, PacketVsFlowLevelPdqAgreeWithin25Percent) {
  const auto p = GetParam();
  // Packet level.
  harness::PdqStack stack;
  auto rp = testing::run_single_bottleneck(stack, p.flows, p.size);
  ASSERT_EQ(rp.completed(), static_cast<std::size_t>(p.flows));
  // Flow level on the same topology and flows.
  sim::Simulator simulator;
  net::Topology topo(simulator, p.seed);
  auto servers = net::build_single_bottleneck(topo, p.flows);
  std::vector<net::FlowSpec> flows;
  for (int i = 0; i < p.flows; ++i) {
    net::FlowSpec f;
    f.id = i + 1;
    f.src = servers[static_cast<std::size_t>(i)];
    f.dst = servers.back();
    f.size_bytes = p.size;
    flows.push_back(f);
  }
  flowsim::Options o;
  o.model = flowsim::Model::kPdq;
  flowsim::FlowLevelSimulator fs(topo, o);
  auto rf = fs.run(flows);
  ASSERT_EQ(rf.completed(), static_cast<std::size_t>(p.flows));
  EXPECT_NEAR(rp.mean_fct_ms(), rf.mean_fct_ms(),
              0.25 * rf.mean_fct_ms() + 0.5);
}

TEST_P(Differential, PacketVsFluidSrptAgreeOnPdqMean) {
  const auto p = GetParam();
  harness::PdqStack stack;
  auto rp = testing::run_single_bottleneck(stack, p.flows, p.size);
  std::vector<sched::Job> jobs;
  for (int i = 0; i < p.flows; ++i) jobs.push_back({p.size, 0, sim::kTimeInfinity, i});
  // Fluid SRPT is a lower bound; packet PDQ should be within ~35% of it
  // (init latency, headers, switchover).
  const double fluid = sched::srpt(jobs, 1e9).mean_fct_ms(jobs);
  EXPECT_GE(rp.mean_fct_ms(), fluid * 0.99);
  EXPECT_LE(rp.mean_fct_ms(), fluid * 1.35 + 1.0);
}

TEST_P(Differential, PacketRcpVsFluidFairSharing) {
  const auto p = GetParam();
  harness::RcpStack stack;
  auto rr = testing::run_single_bottleneck(stack, p.flows, p.size);
  std::vector<sched::Job> jobs;
  for (int i = 0; i < p.flows; ++i) jobs.push_back({p.size, 0, sim::kTimeInfinity, i});
  const double fluid = sched::fair_sharing(jobs, 1e9).mean_fct_ms(jobs);
  EXPECT_GE(rr.mean_fct_ms(), fluid * 0.99);
  EXPECT_LE(rr.mean_fct_ms(), fluid * 1.35 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Differential,
    ::testing::Values(CaseParam{2, 1'000'000, 1}, CaseParam{4, 500'000, 2},
                      CaseParam{8, 250'000, 3}, CaseParam{3, 2'000'000, 4}));

TEST(Differential, ByteConservationAcrossAllProtocols) {
  // Whatever the protocol, every completed flow delivers exactly its size.
  for (const char* name : {"pdq", "rcp", "d3", "tcp"}) {
    std::unique_ptr<harness::ProtocolStack> stack;
    if (std::string(name) == "pdq") stack = std::make_unique<harness::PdqStack>();
    if (std::string(name) == "rcp") stack = std::make_unique<harness::RcpStack>();
    if (std::string(name) == "d3") stack = std::make_unique<harness::D3Stack>();
    if (std::string(name) == "tcp") stack = std::make_unique<harness::TcpStack>();
    auto r = testing::run_single_bottleneck(*stack, 5, 333'333);
    ASSERT_EQ(r.completed(), 5u) << name;
    for (const auto& f : r.flows) {
      EXPECT_EQ(f.bytes_acked, 333'333) << name;
    }
  }
}

TEST(Differential, TreeTopologyAllProtocolsFinishPermutationTraffic) {
  for (const char* name : {"pdq", "rcp", "d3", "tcp"}) {
    std::unique_ptr<harness::ProtocolStack> stack;
    if (std::string(name) == "pdq") stack = std::make_unique<harness::PdqStack>();
    if (std::string(name) == "rcp") stack = std::make_unique<harness::RcpStack>();
    if (std::string(name) == "d3") stack = std::make_unique<harness::D3Stack>();
    if (std::string(name) == "tcp") stack = std::make_unique<harness::TcpStack>();

    sim::Rng rng(5);
    sim::Simulator s0;
    net::Topology t0(s0, 1);
    auto servers = net::build_single_rooted_tree(t0);
    workload::FlowSetOptions w;
    w.num_flows = 12;
    w.size = workload::uniform_size(50'000, 150'000);
    w.pattern = workload::random_permutation();
    auto flows = workload::make_flows(servers, w, rng);

    auto build = [](net::Topology& t) {
      return net::build_single_rooted_tree(t);
    };
    harness::RunOptions opts;
    opts.horizon = 30 * sim::kSecond;
    auto r = harness::run_scenario(*stack, build, flows, opts);
    EXPECT_EQ(r.completed(), flows.size()) << name;
  }
}

TEST(Differential, FatTreePdqBeatsRcpOnPermutationMix) {
  sim::Rng rng(9);
  sim::Simulator s0;
  net::Topology t0(s0, 1);
  auto servers = net::build_fat_tree(t0, 4);
  workload::FlowSetOptions w;
  w.num_flows = 32;
  // Enough bytes per flow that scheduling (not handshakes) dominates.
  w.size = workload::uniform_size(200'000, 800'000);
  w.pattern = workload::random_permutation();
  auto flows = workload::make_flows(servers, w, rng);

  auto build = [](net::Topology& t) { return net::build_fat_tree(t, 4); };
  harness::RunOptions opts;
  opts.horizon = 30 * sim::kSecond;
  harness::PdqStack pdq;
  auto flows1 = flows;
  auto rp = harness::run_scenario(pdq, build, flows1, opts);
  harness::RcpStack rcp;
  auto flows2 = flows;
  auto rr = harness::run_scenario(rcp, build, flows2, opts);
  ASSERT_EQ(rp.completed(), flows.size());
  ASSERT_EQ(rr.completed(), flows.size());
  EXPECT_LT(rp.mean_fct_ms(), rr.mean_fct_ms() * 1.05);
}

TEST(Differential, JellyfishCarriesAllProtocols) {
  sim::Rng rng(11);
  sim::Simulator s0;
  net::Topology t0(s0, 1);
  auto servers = net::build_jellyfish(t0, 8, 6, 4, 3);
  workload::FlowSetOptions w;
  w.num_flows = 16;
  w.size = workload::uniform_size(20'000, 100'000);
  w.pattern = workload::random_permutation();
  auto flows = workload::make_flows(servers, w, rng);
  auto build = [](net::Topology& t) {
    return net::build_jellyfish(t, 8, 6, 4, 3);
  };
  harness::RunOptions opts;
  opts.horizon = 30 * sim::kSecond;
  harness::PdqStack pdq;
  auto r = harness::run_scenario(pdq, build, flows, opts);
  EXPECT_EQ(r.completed(), flows.size());
}

}  // namespace
}  // namespace pdq
