// The tracing decorators must be invisible to the simulation: every
// virtual of net::Agent and net::LinkController forwarded, and a traced
// run of every registry stack equal to the untraced run.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/registry.h"
#include "net/packet_pool.h"
#include "stats/streaming.h"
#include "trace.h"

namespace h = pdq::harness;
namespace net = pdq::net;
namespace sim = pdq::sim;
using perfbench::Layer;
using perfbench::Tracer;

namespace {

// ---- direct forwarding: every virtual reaches the inner object ----

class RecordingAgent : public net::Agent {
 public:
  explicit RecordingAgent(std::set<std::string>& seen) : seen_(seen) {
    result_.packets_sent = 7;
    result_.retransmissions = 2;
  }
  void start() override { seen_.insert("start"); }
  void on_packet(const net::PacketPtr&) override { seen_.insert("on_packet"); }
  const net::FlowResult* flow_result() const override {
    seen_.insert("flow_result");
    return &result_;
  }
  void reroute(net::RouteRef) override { seen_.insert("reroute"); }
  bool handle_link_down(net::NodeId, net::NodeId) override {
    seen_.insert("handle_link_down");
    return true;
  }
  double handoff_rate_bps() const override {
    seen_.insert("handoff_rate_bps");
    return 123.0;
  }
  void seed_rate(double) override { seen_.insert("seed_rate"); }
  bool retirable() const override {
    seen_.insert("retirable");
    return true;
  }
  void quiesce() override { seen_.insert("quiesce"); }
  std::size_t footprint_bytes() const override {
    seen_.insert("footprint_bytes");
    return 4242;
  }

 private:
  std::set<std::string>& seen_;
  net::FlowResult result_;
};

TEST(TracedAgent, ForwardsEveryVirtual) {
  std::set<std::string> seen;
  Tracer tracer;
  {
    perfbench::TracedAgent a(std::make_unique<RecordingAgent>(seen), tracer,
                             /*sender=*/true);
    a.start();
    a.on_packet(net::PacketPtr());
    EXPECT_NE(a.flow_result(), nullptr);
    a.reroute(nullptr);
    EXPECT_TRUE(a.handle_link_down(1, 2));
    EXPECT_EQ(a.handoff_rate_bps(), 123.0);
    a.seed_rate(5.0);
    EXPECT_TRUE(a.retirable());
    a.quiesce();
    EXPECT_EQ(a.footprint_bytes(), 4242u);
  }
  const std::set<std::string> all = {
      "start",     "on_packet", "flow_result",      "reroute",
      "seed_rate", "retirable", "handle_link_down", "handoff_rate_bps",
      "quiesce",   "footprint_bytes"};
  EXPECT_EQ(seen, all);
  EXPECT_EQ(tracer.stat(Layer::kSenderStart).calls, 1u);
  EXPECT_EQ(tracer.stat(Layer::kSenderPacket).calls, 1u);
  EXPECT_EQ(tracer.packets_sent, 7);  // folded at destruction
  EXPECT_EQ(tracer.retransmissions, 2);
}

class RecordingController : public net::LinkController {
 public:
  explicit RecordingController(std::set<std::string>& seen) : seen_(seen) {}
  void attach(net::Port& port) override {
    seen_.insert("attach");
    LinkController::attach(port);
  }
  void on_forward(net::Packet&) override { seen_.insert("on_forward"); }
  void on_reverse(net::Packet&) override { seen_.insert("on_reverse"); }
  void on_enqueue() override { seen_.insert("on_enqueue"); }
  bool reverse_hook() const override {
    seen_.insert("reverse_hook");
    return false;
  }
  std::uint64_t flow_scan_ops() const override {
    seen_.insert("flow_scan_ops");
    return 99;
  }
  void reset_state() override { seen_.insert("reset_state"); }
  void granted_flows(std::vector<net::GrantInfo>& out) const override {
    seen_.insert("granted_flows");
    out.push_back({});
  }

 private:
  std::set<std::string>& seen_;
};

TEST(TracedController, ForwardsEveryVirtual) {
  std::set<std::string> seen;
  Tracer tracer;
  sim::Simulator simulator;
  net::Topology topo(simulator);
  const net::NodeId a = topo.add_host();
  const net::NodeId b = topo.add_host();
  topo.add_duplex_link(a, b);
  net::Port* port = topo.port_on_link(a, b);
  ASSERT_NE(port, nullptr);
  port->set_controller(std::make_unique<perfbench::TracedController>(
      std::make_unique<RecordingController>(seen), tracer));
  net::LinkController& c = *port->controller();
  net::Packet p;
  c.on_forward(p);
  c.on_reverse(p);
  c.on_enqueue();
  EXPECT_FALSE(c.reverse_hook());
  EXPECT_EQ(c.flow_scan_ops(), 99u);
  c.reset_state();
  std::vector<net::GrantInfo> grants;
  c.granted_flows(grants);
  EXPECT_EQ(grants.size(), 1u);
  const std::set<std::string> all = {
      "attach",       "on_forward",    "on_reverse",  "on_enqueue",
      "reverse_hook", "flow_scan_ops", "reset_state", "granted_flows"};
  EXPECT_EQ(seen, all);
  EXPECT_EQ(tracer.stat(Layer::kCtlForward).calls, 1u);
  EXPECT_EQ(tracer.stat(Layer::kCtlReverse).calls, 1u);
  EXPECT_EQ(tracer.stat(Layer::kCtlEnqueue).calls, 1u);
}

TEST(Tracer, SelfTimesPartitionCoveredTime) {
  Tracer t;
  {
    Tracer::Span outer(t, Layer::kSenderPacket);
    for (int i = 0; i < 3; ++i) Tracer::Span inner(t, Layer::kCtlForward);
  }
  { Tracer::Span alone(t, Layer::kReceiverPacket); }
  EXPECT_EQ(t.stat(Layer::kSenderPacket).calls, 1u);
  EXPECT_EQ(t.stat(Layer::kCtlForward).calls, 3u);
  EXPECT_GE(t.stat(Layer::kSenderPacket).self_ns, 0);
  EXPECT_EQ(t.stat(Layer::kSenderPacket).self_ns +
                t.stat(Layer::kCtlForward).self_ns +
                t.stat(Layer::kReceiverPacket).self_ns,
            t.covered_ns());
}

// ---- end to end: traced run == untraced run, for every stack ----

h::Scenario small_scenario(bool streaming_hybrid) {
  pdq::workload::FlowSetOptions w;
  w.num_flows = 48;
  w.size = pdq::workload::pareto_size(1.1, 4'000, 600'000);
  w.pattern = pdq::workload::staggered_prob(0.5, 4);
  w.arrival_rate_per_sec = 20'000.0;
  w.deadline = [](sim::Rng& r) {
    return r.bernoulli(0.5) ? 20 * sim::kMillisecond : sim::kTimeInfinity;
  };
  h::Scenario s;
  s.topology = h::TopologySpec::fat_tree(4);
  s.workload = h::WorkloadSpec::flow_set(w);
  s.options.horizon = 5 * sim::kSecond;
  if (streaming_hybrid) {
    s.options.streaming = std::make_shared<const pdq::stats::StreamingSpec>();
    auto hybrid = std::make_shared<h::HybridSpec>();
    hybrid->head_bytes = 16 * 1024;
    hybrid->tail_bytes = 16 * 1024;
    hybrid->min_fluid_bytes = 64 * 1024;
    s.options.hybrid = std::move(hybrid);
  }
  return s;
}

/// One isolated simulation of `s` under `stack`, traced when `tracer`
/// is non-null.
h::RunResult run(const h::Scenario& s, const std::string& stack,
                 Tracer* tracer) {
  constexpr std::uint64_t kSeed = 11;
  net::PacketPool pool;
  net::PacketPool::ScopedPool scope(pool);
  sim::Simulator simulator;
  net::Topology topo(simulator, kSeed);
  const auto servers = s.topology.build(topo);
  sim::Rng rng(kSeed);
  const auto flows = s.workload.make(servers, rng);
  auto inner = h::StackRegistry::global().make(stack);
  h::RunOptions opts = s.options;
  opts.seed = kSeed;
  if (tracer == nullptr) {
    return h::run_prepared(*inner, simulator, topo, flows, opts);
  }
  perfbench::TracingStack traced(std::move(inner), *tracer);
  return h::run_prepared(traced, simulator, topo, flows, opts);
}

void expect_equal(const h::RunResult& a, const h::RunResult& b) {
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.wire_drops, b.wire_drops);
  const h::EngineCounters& x = a.engine;
  const h::EngineCounters& y = b.engine;
  EXPECT_EQ(x.events_executed, y.events_executed);
  EXPECT_EQ(x.events_scheduled, y.events_scheduled);
  EXPECT_EQ(x.events_cancelled, y.events_cancelled);
  EXPECT_EQ(x.packet_allocs, y.packet_allocs);
  EXPECT_EQ(x.packet_acquires, y.packet_acquires);
  EXPECT_EQ(x.events_coalesced, y.events_coalesced);    // reverse_hook
  EXPECT_EQ(x.flowlist_scan_ops, y.flowlist_scan_ops);  // flow_scan_ops
  EXPECT_EQ(x.peak_pending_events, y.peak_pending_events);
  EXPECT_EQ(x.pool_highwater, y.pool_highwater);
  EXPECT_EQ(x.peak_flow_bytes, y.peak_flow_bytes);  // footprint_bytes
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const net::FlowResult& f = a.flows[i];
    const net::FlowResult& g = b.flows[i];
    EXPECT_EQ(f.spec.id, g.spec.id);
    EXPECT_EQ(f.outcome, g.outcome) << "flow " << f.spec.id;
    EXPECT_EQ(f.finish_time, g.finish_time) << "flow " << f.spec.id;
    EXPECT_EQ(f.bytes_acked, g.bytes_acked);
    EXPECT_EQ(f.packets_sent, g.packets_sent);
    EXPECT_EQ(f.retransmissions, g.retransmissions);
  }
  ASSERT_EQ(a.streaming == nullptr, b.streaming == nullptr);
  if (a.streaming != nullptr) {
    const pdq::stats::RunStats& s = *a.streaming;
    const pdq::stats::RunStats& t = *b.streaming;
    EXPECT_EQ(s.flows(), t.flows());
    EXPECT_EQ(s.completed(), t.completed());
    EXPECT_EQ(s.mean_fct_ms(), t.mean_fct_ms());
    EXPECT_EQ(s.max_fct_ms(), t.max_fct_ms());
    EXPECT_EQ(s.windowed_p99_fct_ms(), t.windowed_p99_fct_ms());
    EXPECT_EQ(s.application_throughput(), t.application_throughput());
    EXPECT_EQ(s.goodput_gbps(), t.goodput_gbps());
  }
}

class EveryStack : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryStack, TracedRunEqualsUntraced) {
  const h::Scenario s = small_scenario(/*streaming_hybrid=*/false);
  Tracer tracer;
  const h::RunResult plain = run(s, GetParam(), nullptr);
  const h::RunResult traced = run(s, GetParam(), &tracer);
  ASSERT_GT(plain.completed(), 0u);
  expect_equal(plain, traced);
  // M-PDQ's parent agents build their own subflow agents, which the
  // stack never sees, so only single-path stacks show traced packets.
  if (h::StackRegistry::global().make(GetParam())->subflows() == 1) {
    EXPECT_GT(tracer.stat(Layer::kSenderPacket).calls, 0u);
    EXPECT_GT(tracer.stat(Layer::kReceiverPacket).calls, 0u);
  }
}

// Streaming retires agents mid-run (retirable, quiesce) and the hybrid
// backend hands flows to the fluid model and back (handoff_rate_bps,
// seed_rate).
TEST_P(EveryStack, TracedStreamingHybridRunEqualsUntraced) {
  const h::Scenario s = small_scenario(/*streaming_hybrid=*/true);
  Tracer tracer;
  const h::RunResult plain = run(s, GetParam(), nullptr);
  const h::RunResult traced = run(s, GetParam(), &tracer);
  ASSERT_NE(plain.streaming, nullptr);
  ASSERT_GT(plain.completed(), 0u);
  expect_equal(plain, traced);
}

std::string test_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string n;
  for (char c : info.param) {
    n += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(Registry, EveryStack,
                         ::testing::ValuesIn(
                             h::StackRegistry::global().names()),
                         test_name);

}  // namespace
