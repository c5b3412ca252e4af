// Rate-paced sender scaffolding shared by the explicit-rate protocols
// (PDQ, RCP, D3).
//
// Handles packetization, pacing at the protocol-provided rate, selective
// repeat (per-packet acks + retransmit timeout), RTT estimation, and flow
// completion bookkeeping. Protocol subclasses fill in header handling via
// the virtual hooks.
#pragma once

#include <functional>
#include <vector>

#include "net/flow.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/topology.h"
#include "sim/time.h"

namespace pdq::net {

/// Everything a transport endpoint needs to know about its flow.
struct AgentContext {
  Topology* topo = nullptr;
  Host* local = nullptr;
  FlowSpec spec;
  RouteRef route;  // shared forward+reverse path (sender -> receiver)
  std::function<void(const FlowResult&)> on_done;
};

class PacedSender : public Agent {
 public:
  explicit PacedSender(AgentContext ctx);

  void start() override;
  void on_packet(const PacketPtr& p) override;
  /// Adopts the new route for all subsequent sends (retransmissions
  /// included); a null route terminates the flow (kTerminated).
  void reroute(RouteRef route) override;

  const FlowResult& result() const { return result_; }
  const FlowResult* flow_result() const override { return &result_; }
  double rate_bps() const { return rate_bps_; }

  // Hybrid handoff. complete() leaves rate_bps_ at its final granted
  // value (every post-completion path is finished()-guarded), so the
  // harness can read the handoff rate with no extra state.
  double handoff_rate_bps() const override { return rate_bps_; }
  /// Applies immediately (call after start()): the tail segment resumes
  /// at the fluid equilibrium rate unless the protocol granted one
  /// during on_start().
  void seed_rate(double bps) override {
    if (started_ && !finished() && rate_bps_ <= 0.0 && bps > 0.0)
      set_rate(bps);
  }
  sim::Time rtt_estimate() const { return rtt_; }
  std::int64_t bytes_unacked() const;
  std::int64_t remaining_bytes() const;
  bool finished() const { return result_.outcome != FlowOutcome::kPending; }

  /// Expected remaining transmission time at `rate` (paper's T_S notion,
  /// computed against the given reference rate).
  sim::Time expected_tx_time(double rate) const {
    return sim::transmission_time(remaining_bytes(), rate);
  }

  // --- dynamic resizing (M-PDQ load shifting) ---

  // --- retirement (streaming-metrics mode) ---
  /// A paced sender is safe to destroy once its flow is finished: the
  /// receiver replies along in-flight packets' own routes and the host
  /// drops deliveries for detached flows. Under loss hardening the
  /// sender additionally lives until its TERM is acknowledged (or the
  /// retry budget runs out), so a lost TERM still gets retransmitted.
  bool retirable() const override { return finished() && !term_retry_pending_; }
  void quiesce() override;
  std::size_t footprint_bytes() const override;

  /// Bytes not yet handed to the network (never-sent tail packets).
  std::int64_t unsent_tail_bytes() const;
  /// Removes up to `bytes` from the unsent tail (whole packets); returns
  /// the amount actually removed. May complete the flow if everything
  /// still outstanding was already acknowledged.
  std::int64_t shrink_tail(std::int64_t bytes);
  /// Appends `bytes` to the flow (no-op if already finished; returns
  /// false in that case).
  bool extend_tail(std::int64_t bytes);

 protected:
  /// Called once at flow start, after the SYN is sent.
  virtual void on_start() {}
  /// Fills protocol headers on an outgoing forward packet.
  virtual void decorate(Packet& p) = 0;
  /// Protocol reaction to any reverse packet (rate update etc.). The base
  /// class has already recorded ack bookkeeping and RTT.
  virtual void on_reverse(const PacketPtr& p) = 0;
  /// Hook invoked just before completing; return false to suppress the
  /// TERM packet.
  virtual bool send_term_on_complete() { return true; }

  /// Subclasses drive the pace with this; 0 stops data transmission.
  void set_rate(double bps);

  void send_syn();
  void send_control(PacketType type);
  /// Finishes the flow: kCompleted or kTerminated.
  void complete(FlowOutcome outcome);

  sim::Simulator& sim() { return ctx_.topo->sim(); }
  sim::Time now() { return sim().now(); }
  const AgentContext& ctx() const { return ctx_; }
  bool started() const { return started_; }

  PacketPtr make_forward(PacketType type);

  /// Retransmission timeout: max(k x RTT, floor).
  sim::Time rto() const;

  double nic_rate_bps() const { return ctx_.local->nic_rate_bps(); }

 private:
  void pace_next();
  void send_data_packet(std::size_t idx);
  int pick_packet_to_send();
  void record_ack(const Packet& p);
  void update_rtt(const Packet& p);
  void syn_retry();
  /// (Re)schedules the next pace event at the earliest legal send time.
  void kick_pacer();
  /// Loss hardening: schedules the next TERM retransmit (doubling
  /// backoff from the RTO, capped) until the TermAck arrives or the
  /// retry budget is spent.
  void arm_term_retry();
  void term_retry();

  AgentContext ctx_;
  FlowResult result_;

  std::int64_t num_packets_ = 0;
  std::int32_t last_payload_ = 0;
  std::vector<std::int32_t> payload_;  // per-packet payload bytes
  std::vector<bool> acked_;
  std::vector<sim::Time> sent_at_;     // kTimeInfinity = never sent
  std::vector<std::int8_t> acks_after_;  // higher-seq acks since send
  std::int64_t next_new_ = 0;  // every index below it has been sent
  /// Cumulative-ack cursor: every index below it is acked, so the
  /// per-packet scans run over [cum_ack_, next_new_) only.
  std::int64_t cum_ack_ = 0;
  std::int64_t acked_count_ = 0;

  double rate_bps_ = 0.0;
  sim::Time last_data_sent_ = -sim::kSecond;  // "long ago"
  sim::Time rtt_;
  bool rtt_valid_ = false;
  bool started_ = false;
  // Packed beside started_ so cum_ack_ fits in the freed padding.
  bool pace_pending_ = false;
  sim::EventId pace_event_ = 0;
  /// One timer slot for both retry loops: SYN retry runs only before
  /// the first feedback, the loss-hardened TERM retransmit only after
  /// completion, so the phases never overlap. Sharing the slot (and
  /// packing the flags below into former tail padding) keeps sizeof at
  /// the golden baseline — peak_flow_bytes in BENCH_engine.json pins it.
  sim::EventId retry_event_ = 0;
  bool syn_pending_ = false;
  bool got_reverse_ = false;  // any feedback at all (gates SYN retry)

  // TERM reliability (loss hardening only; see Topology::loss_hardening).
  bool term_retry_pending_ = false;
  bool term_acked_ = false;
  std::uint8_t term_retries_ = 0;
};

/// Receiver that echoes every forward packet back as the matching reverse
/// type, copying protocol headers (the paper's PDQ receiver behaviour).
class EchoReceiver : public Agent {
 public:
  explicit EchoReceiver(AgentContext ctx) : ctx_(std::move(ctx)) {}

  void on_packet(const PacketPtr& p) override;
  std::int64_t bytes_received() const { return bytes_received_; }

  /// Retirable after echoing the TERM: the TermAck is already on the
  /// wire and the sender sends nothing further on this flow.
  bool retirable() const override { return saw_term_; }
  std::size_t footprint_bytes() const override { return sizeof(*this); }

 protected:
  /// Protocol tweak applied to the reply header (e.g. PDQ rate clamping).
  virtual void decorate_reply(Packet& reply, const Packet& data);

  AgentContext ctx_;
  std::int64_t bytes_received_ = 0;
  bool saw_term_ = false;
};

}  // namespace pdq::net
