// Microbenchmarks (google-benchmark) for the simulator hot paths: event
// queue throughput, packet pool recycling, PDQ switch packet processing,
// the paced sender's send/ack path, and path computation.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/pdq_switch.h"
#include "net/builders.h"
#include "net/paced_sender.h"
#include "net/packet_pool.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

using namespace pdq;

namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  std::uint64_t x = 9;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ULL + 1;
      q.schedule(static_cast<sim::Time>(x % 100000), [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

/// Hold model: keep state.range(0) events pending; one item is one pop
/// plus one push. Push times land on a 100 ns grid a random distance
/// past the popped event, so same-instant ties occur as in a run.
void BM_EventQueueHold(benchmark::State& state) {
  const auto pending = state.range(0);
  sim::EventQueue q;
  std::uint64_t x = 9;
  const auto next_delay = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<sim::Time>((x >> 33) % 1000) * 100;
  };
  for (std::int64_t i = 0; i < pending; ++i) q.schedule(next_delay(), [] {});
  for (auto _ : state) {
    const auto ev = q.pop();
    benchmark::DoNotOptimize(
        q.schedule_as_if(ev.at + next_delay(), ev.at, [] {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(300)->Arg(2000)->Arg(12000);

/// Retransmission-timer churn in the shape of TcpSender::arm_timer():
/// each of state.range(0) flows holds one near event (its next packet,
/// about 12 us ahead) and one timer 1 ms ahead. One item pops the
/// earliest near event, cancels and re-arms its flow's timer, and
/// schedules the flow's next near event, so every item buries one
/// cancelled timer far ahead of the clock.
void BM_EventQueueTimerChurn(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  std::vector<sim::EventId> timers(flows);
  std::size_t ran = 0;  // flow of the near event that ran last
  std::uint64_t x = 9;
  const auto near_delay = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return 11 * sim::kMicrosecond + static_cast<sim::Time>((x >> 33) % 2000);
  };
  for (std::size_t f = 0; f < flows; ++f) {
    q.schedule(near_delay(), [&ran, f] { ran = f; });
    timers[f] = q.schedule(sim::kMillisecond, [] {});
  }
  for (auto _ : state) {
    auto ev = q.pop();
    ev.fn();
    q.cancel(timers[ran]);
    timers[ran] =
        q.schedule_as_if(ev.at + sim::kMillisecond, ev.at, [] {});
    benchmark::DoNotOptimize(q.schedule_as_if(
        ev.at + near_delay(), ev.at, [&ran, f = ran] { ran = f; }));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTimerChurn)->Arg(64)->Arg(512);

void BM_SimulatorEventCascade(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 1000) s.schedule_in(10, tick);
    };
    s.schedule_in(0, tick);
    s.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventCascade);

void BM_PdqSwitchForward(benchmark::State& state) {
  const auto flows = state.range(0);
  sim::Simulator simulator;
  net::Topology topo(simulator);
  auto servers = net::build_single_bottleneck(topo, 2);
  auto ctl = std::make_unique<core::PdqLinkController>(core::PdqConfig::full());
  auto* c = ctl.get();
  topo.port_on_link(topo.switch_ids()[0], servers.back())
      ->set_controller(std::move(ctl));
  // Pre-populate the list with `flows` flows.
  for (std::int64_t f = 1; f <= flows; ++f) {
    net::Packet p;
    p.flow = f;
    p.type = net::PacketType::kSyn;
    p.pdq.rate_bps = 1e9;
    p.pdq.expected_tx = f * sim::kMillisecond;
    p.pdq.rtt = 200 * sim::kMicrosecond;
    c->on_forward(p);
  }
  std::int64_t f = 1;
  for (auto _ : state) {
    net::Packet p;
    p.flow = f;
    p.type = net::PacketType::kData;
    p.pdq.rate_bps = 1e9;
    p.pdq.expected_tx = f * sim::kMillisecond;
    p.pdq.rtt = 200 * sim::kMicrosecond;
    c->on_forward(p);
    f = f % flows + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PdqSwitchForward)->Arg(2)->Arg(8)->Arg(32);

/// Paces at a fixed rate once the SYN-ACK arrives; no protocol headers.
class FixedRateSender : public net::PacedSender {
 public:
  FixedRateSender(net::AgentContext ctx, double bps)
      : PacedSender(std::move(ctx)), bps_(bps) {}

 protected:
  void decorate(net::Packet&) override {}
  void on_reverse(const net::PacketPtr&) override { set_rate(bps_); }

 private:
  double bps_;
};

/// One sender -> switch -> receiver flow, run to completion.
struct PacedFlow {
  sim::Simulator simulator;
  net::Topology topo{simulator};
  std::unique_ptr<FixedRateSender> sender;
  std::unique_ptr<net::EchoReceiver> receiver;

  explicit PacedFlow(std::int64_t size) {
    const auto servers = net::build_single_bottleneck(topo, 1);
    net::FlowSpec f;
    f.id = 1;
    f.src = servers[0];
    f.dst = servers[1];
    f.size_bytes = size;
    net::AgentContext rctx;
    rctx.topo = &topo;
    rctx.local = &topo.host(f.dst);
    rctx.spec = f;
    receiver = std::make_unique<net::EchoReceiver>(std::move(rctx));
    topo.host(f.dst).attach_receiver(f.id, receiver.get());
    net::AgentContext sctx;
    sctx.topo = &topo;
    sctx.local = &topo.host(f.src);
    sctx.spec = f;
    sctx.route = topo.ecmp_route(f.id, f.src, f.dst);
    sender = std::make_unique<FixedRateSender>(std::move(sctx), 1e9);
    topo.host(f.src).attach_sender(f.id, sender.get());
  }
};

// Whole-flow cost of the paced sender's send and ack path; items are
// data packets, so items/s shows how per-packet cost scales with flow
// size. Building and tearing down the fabric is not timed.
void BM_PacedSenderFlow(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto flow = std::make_unique<PacedFlow>(size);
    state.ResumeTiming();
    flow->simulator.schedule_at(0, [&] { flow->sender->start(); });
    flow->simulator.run();
    benchmark::DoNotOptimize(flow->sender->result().bytes_acked);
    state.PauseTiming();
    flow.reset();
    state.ResumeTiming();
  }
  const std::int64_t packets =
      (size + net::kMaxPayloadBytes - 1) / net::kMaxPayloadBytes;
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_PacedSenderFlow)->Arg(64 << 10)->Arg(4 << 20)->Arg(64 << 20);

void BM_PacketPoolAcquireRelease(benchmark::State& state) {
  net::PacketPool pool;
  { net::PacketPtr warm = pool.acquire(); }  // steady state: 1 free slot
  for (auto _ : state) {
    net::PacketPtr p = pool.acquire();
    p->payload = 1460;
    benchmark::DoNotOptimize(p.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketPoolAcquireRelease);

void BM_FatTreeEcmpRouteFlyweight(benchmark::State& state) {
  sim::Simulator simulator;
  net::Topology topo(simulator);
  auto servers = net::build_fat_tree(topo, 8);
  net::FlowId f = 0;
  for (auto _ : state) {
    auto route = topo.ecmp_route(++f, servers[0],
                                 servers[servers.size() - 1]);
    benchmark::DoNotOptimize(route.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FatTreeEcmpRouteFlyweight);

void BM_FatTreeEcmpPath(benchmark::State& state) {
  sim::Simulator simulator;
  net::Topology topo(simulator);
  auto servers = net::build_fat_tree(topo, 8);
  net::FlowId f = 0;
  for (auto _ : state) {
    auto path = topo.ecmp_path(++f, servers[0],
                               servers[servers.size() - 1]);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_FatTreeEcmpPath);

void BM_EndToEndFiveFlowScenario(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Topology topo(simulator);
    auto servers = net::build_single_bottleneck(topo, 5);
    core::install_pdq(topo, core::PdqConfig::full());
    // Measure raw simulation throughput of the canonical Fig 6 scenario
    // setup (no flows: controller ticks only) for 10 simulated ms.
    simulator.run(10 * sim::kMillisecond);
    benchmark::DoNotOptimize(simulator.now());
  }
}
BENCHMARK(BM_EndToEndFiveFlowScenario);

}  // namespace

BENCHMARK_MAIN();
