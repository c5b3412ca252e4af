// PacedSender scaffolding: pacing, reliability, RTT estimation, resizing.
#include "net/paced_sender.h"

#include <gtest/gtest.h>

#include <functional>

#include "net/builders.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace pdq::net {
namespace {

/// Minimal concrete sender: fixed rate from the first reverse packet.
class FixedRateSender : public PacedSender {
 public:
  FixedRateSender(AgentContext ctx, double bps)
      : PacedSender(std::move(ctx)), bps_(bps) {}

  using PacedSender::extend_tail;
  using PacedSender::shrink_tail;
  using PacedSender::unsent_tail_bytes;

  /// Runs after every reverse packet's ack bookkeeping and rate update.
  std::function<void()> after_reverse;

 protected:
  void decorate(Packet&) override {}
  void on_reverse(const PacketPtr&) override {
    set_rate(bps_);
    if (after_reverse) after_reverse();
  }

 private:
  double bps_;
};

struct Rig {
  sim::Simulator simulator;
  Topology topo{simulator};
  std::vector<NodeId> servers;
  std::unique_ptr<FixedRateSender> sender;
  std::unique_ptr<EchoReceiver> receiver;
  bool done = false;
  FlowResult done_result;

  explicit Rig(std::int64_t size, double rate = 1e9,
               double drop = 0.0) {
    servers = build_single_bottleneck(topo, 1);
    if (drop > 0.0) {
      topo.set_link_drop_rate(topo.switch_ids()[0], servers[1], drop);
    }
    FlowSpec f;
    f.id = 1;
    f.src = servers[0];
    f.dst = servers[1];
    f.size_bytes = size;

    AgentContext rctx;
    rctx.topo = &topo;
    rctx.local = &topo.host(f.dst);
    rctx.spec = f;
    receiver = std::make_unique<EchoReceiver>(std::move(rctx));
    topo.host(f.dst).attach_receiver(f.id, receiver.get());

    AgentContext sctx;
    sctx.topo = &topo;
    sctx.local = &topo.host(f.src);
    sctx.spec = f;
    sctx.route = topo.ecmp_route(f.id, f.src, f.dst);
    sctx.on_done = [this](const FlowResult& r) {
      done = true;
      done_result = r;
    };
    sender = std::make_unique<FixedRateSender>(std::move(sctx), rate);
    topo.host(f.src).attach_sender(f.id, sender.get());
  }

  void run(sim::Time horizon = 5 * sim::kSecond) {
    simulator.schedule_at(0, [&] { sender->start(); });
    simulator.run(horizon);
  }
};

TEST(PacedSender, CompletesAndConservesBytes) {
  Rig rig(100'000);
  rig.run();
  EXPECT_TRUE(rig.done);
  EXPECT_EQ(rig.done_result.outcome, FlowOutcome::kCompleted);
  EXPECT_EQ(rig.done_result.bytes_acked, 100'000);
  EXPECT_EQ(rig.receiver->bytes_received(), 100'000);
}

TEST(PacedSender, SingleByteFlow) {
  Rig rig(1);
  rig.run();
  EXPECT_TRUE(rig.done);
  EXPECT_EQ(rig.done_result.bytes_acked, 1);
}

TEST(PacedSender, ExactlyOnePacket) {
  Rig rig(kMaxPayloadBytes);
  rig.run();
  EXPECT_TRUE(rig.done);
  // SYN + 1 data + TERM.
  EXPECT_EQ(rig.done_result.packets_sent, 3);
  EXPECT_EQ(rig.done_result.retransmissions, 0);
}

TEST(PacedSender, PacingRespectsRate) {
  // 100 KB at 100 Mbps should take ~8 ms + handshake; at 1 Gbps ~0.8 ms.
  Rig slow(100'000, 100e6);
  slow.run();
  const double slow_ms = sim::to_millis(slow.done_result.completion_time());
  Rig fast(100'000, 1e9);
  fast.run();
  const double fast_ms = sim::to_millis(fast.done_result.completion_time());
  EXPECT_GT(slow_ms, 8.0);
  EXPECT_LT(slow_ms, 10.0);
  EXPECT_LT(fast_ms, 2.0);
}

TEST(PacedSender, RecoversFromHeavyLoss) {
  Rig rig(50'000, 1e9, /*drop=*/0.2);
  rig.run(20 * sim::kSecond);
  EXPECT_TRUE(rig.done);
  EXPECT_EQ(rig.done_result.bytes_acked, 50'000);
  EXPECT_GT(rig.done_result.retransmissions, 0);
}

TEST(PacedSender, LossRecoveryScheduleIsPinned) {
  // 343 packets over a 5%-lossy data link. This loss pattern takes all
  // three recovery paths: fast retransmit once three later acks overtake
  // a hole, a plain RTO expiry where too few later acks follow a loss,
  // and the wake-up at the earliest expiry while every packet is in
  // flight. Of the 62 retransmissions, 61 are fast and one is an RTO.
  // The counts and finish time pin the exact schedule.
  Rig rig(500'000, 1e9, /*drop=*/0.05);
  rig.run(20 * sim::kSecond);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.done_result.outcome, FlowOutcome::kCompleted);
  EXPECT_EQ(rig.done_result.bytes_acked, 500'000);
  // SYN + 343 data + 62 retransmissions + TERM.
  EXPECT_EQ(rig.done_result.packets_sent, 407);
  EXPECT_EQ(rig.done_result.retransmissions, 62);
  EXPECT_EQ(rig.done_result.finish_time, 7'001'760);
}

TEST(PacedSender, RttEstimateTracksPath) {
  Rig rig(200'000);
  rig.run();
  // Host->switch->host with 25us processing: RTT is tens of microseconds.
  EXPECT_GT(rig.sender->rtt_estimate(), 10 * sim::kMicrosecond);
  EXPECT_LT(rig.sender->rtt_estimate(), sim::kMillisecond);
}

TEST(PacedSender, ShrinkTailRemovesOnlyUnsent) {
  Rig rig(100'000);
  // Before start everything is unsent.
  EXPECT_EQ(rig.sender->unsent_tail_bytes(), 100'000);
  const auto removed = rig.sender->shrink_tail(30'000);
  EXPECT_GE(removed, 30'000);          // whole packets
  EXPECT_LE(removed, 30'000 + kMaxPayloadBytes);
  rig.run();
  EXPECT_TRUE(rig.done);
  EXPECT_EQ(rig.done_result.bytes_acked, 100'000 - removed);
  EXPECT_EQ(rig.receiver->bytes_received(), 100'000 - removed);
}

TEST(PacedSender, ExtendTailGrowsFlow) {
  Rig rig(10'000);
  EXPECT_TRUE(rig.sender->extend_tail(20'000));
  rig.run();
  EXPECT_TRUE(rig.done);
  EXPECT_EQ(rig.done_result.bytes_acked, 30'000);
  EXPECT_EQ(rig.receiver->bytes_received(), 30'000);
}

TEST(PacedSender, ShrinkEverythingUnsentBeforeStartLeavesMinimum) {
  Rig rig(10'000);
  // Shrink all but nothing was sent; flow cannot shrink to zero packets
  // below what was already transmitted (here: nothing was transmitted, so
  // everything can go -- but the flow then completes vacuously when run).
  const auto removed = rig.sender->shrink_tail(1 << 30);
  EXPECT_EQ(removed, 10'000);
  EXPECT_EQ(rig.sender->unsent_tail_bytes(), 0);
}

/// Once the first `acked` bytes are acknowledged and nothing sent is
/// still outstanding (so the cumulative ack has moved past the start of
/// the flow), runs `fn` once.
void at_acked_prefix(Rig& rig, std::int64_t size, std::int64_t acked,
                     std::function<void()> fn) {
  rig.sender->after_reverse = [&rig, size, acked, fn = std::move(fn),
                               fired = false]() mutable {
    const std::int64_t got = rig.sender->result().bytes_acked;
    if (fired || got < acked ||
        got + rig.sender->unsent_tail_bytes() != size) {
      return;
    }
    fired = true;
    fn();
  };
}

TEST(PacedSender, ShrinkThenExtendMidFlight) {
  // Paced at 100 Mbps the ack of each packet returns before the next one
  // leaves, so every sent packet is acked when the hook fires.
  Rig rig(100'000, 100e6);
  std::int64_t removed = 0;
  at_acked_prefix(rig, 100'000, 30'000, [&] {
    removed = rig.sender->shrink_tail(40'000);
    EXPECT_TRUE(rig.sender->extend_tail(10'000));
  });
  rig.run();
  ASSERT_TRUE(rig.done);
  EXPECT_GE(removed, 40'000);
  EXPECT_LT(removed, 40'000 + kMaxPayloadBytes);
  const std::int64_t size = 100'000 - removed + 10'000;
  EXPECT_EQ(rig.done_result.outcome, FlowOutcome::kCompleted);
  EXPECT_EQ(rig.done_result.spec.size_bytes, size);
  EXPECT_EQ(rig.done_result.bytes_acked, size);
  EXPECT_EQ(rig.receiver->bytes_received(), size);
}

TEST(PacedSender, ShrinkToAckedPrefixCompletesAtOnce) {
  Rig rig(100'000, 100e6);
  std::int64_t acked_at_shrink = 0;
  at_acked_prefix(rig, 100'000, 30'000, [&] {
    acked_at_shrink = rig.sender->result().bytes_acked;
    const std::int64_t unsent = rig.sender->unsent_tail_bytes();
    EXPECT_EQ(rig.sender->shrink_tail(unsent), unsent);
    // Every remaining packet is acked: the shrink itself completes it.
    EXPECT_TRUE(rig.done);
    EXPECT_FALSE(rig.sender->extend_tail(1'000));
  });
  rig.run();
  ASSERT_TRUE(rig.done);
  EXPECT_GE(acked_at_shrink, 30'000);
  EXPECT_EQ(rig.done_result.outcome, FlowOutcome::kCompleted);
  EXPECT_EQ(rig.done_result.spec.size_bytes, acked_at_shrink);
  EXPECT_EQ(rig.done_result.bytes_acked, acked_at_shrink);
  EXPECT_EQ(rig.receiver->bytes_received(), acked_at_shrink);
}

TEST(PacedSender, ExtendAfterCompleteFails) {
  Rig rig(1'000);
  rig.run();
  EXPECT_TRUE(rig.done);
  EXPECT_FALSE(rig.sender->extend_tail(1'000));
}

TEST(PacedSender, SynRetransmittedWhenLost) {
  // 100% loss on the forward wire means the SYN never arrives... use a
  // transiently lossy link instead: drop everything, then heal.
  Rig rig(5'000);
  rig.topo.set_link_drop_rate(rig.topo.switch_ids()[0], rig.servers[1], 1.0);
  rig.simulator.schedule_at(25 * sim::kMillisecond, [&] {
    rig.topo.set_link_drop_rate(rig.topo.switch_ids()[0], rig.servers[1], 0.0);
  });
  rig.run();
  EXPECT_TRUE(rig.done);  // only possible if the SYN was retried
}

}  // namespace
}  // namespace pdq::net
