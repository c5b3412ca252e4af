#include "net/paced_sender.h"

#include <algorithm>
#include <cassert>

namespace pdq::net {

namespace {
constexpr sim::Time kMinRto = 2 * sim::kMillisecond;
constexpr sim::Time kInitialRtt = 200 * sim::kMicrosecond;
constexpr sim::Time kSynRto = 10 * sim::kMillisecond;
constexpr std::int8_t kDupAckThreshold = 3;
// Loss hardening: TERM retransmit backoff doubles from the RTO up to
// this ceiling, for at most this many retries (a persistently dead
// reverse path must not keep an agent alive forever).
constexpr sim::Time kTermBackoffCap = 100 * sim::kMillisecond;
constexpr int kMaxTermRetries = 8;
}  // namespace

PacedSender::PacedSender(AgentContext ctx)
    : ctx_(std::move(ctx)), rtt_(kInitialRtt) {
  assert(ctx_.spec.size_bytes > 0);
  result_.spec = ctx_.spec;
  num_packets_ =
      (ctx_.spec.size_bytes + kMaxPayloadBytes - 1) / kMaxPayloadBytes;
  last_payload_ = static_cast<std::int32_t>(
      ctx_.spec.size_bytes - (num_packets_ - 1) * kMaxPayloadBytes);
  acked_.assign(static_cast<std::size_t>(num_packets_), false);
  sent_at_.assign(static_cast<std::size_t>(num_packets_), sim::kTimeInfinity);
  payload_.assign(static_cast<std::size_t>(num_packets_), kMaxPayloadBytes);
  payload_.back() = last_payload_;
  acks_after_.assign(static_cast<std::size_t>(num_packets_), 0);
}

void PacedSender::start() {
  // A timeline link failure may terminate a flow before its scheduled
  // start event fires; starting then would emit packets for a finished
  // flow.
  if (finished()) return;
  assert(!started_);
  started_ = true;
  send_syn();
  syn_pending_ = true;
  retry_event_ = sim().schedule_in(kSynRto, [this] {
    syn_pending_ = false;
    syn_retry();
  });
  on_start();
}

void PacedSender::syn_retry() {
  if (finished() || got_reverse_) return;
  send_syn();
  syn_pending_ = true;
  retry_event_ = sim().schedule_in(kSynRto, [this] {
    syn_pending_ = false;
    syn_retry();
  });
}

void PacedSender::quiesce() {
  // Cancel only events known pending; the flags are the record of what
  // is live (retry_event_ serves both the SYN and the TERM retry). A
  // stale or default EventId would be a no-op in the queue.
  if (syn_pending_) {
    sim().cancel(retry_event_);
    syn_pending_ = false;
  }
  if (pace_pending_) {
    sim().cancel(pace_event_);
    pace_pending_ = false;
  }
  if (term_retry_pending_) {
    sim().cancel(retry_event_);
    term_retry_pending_ = false;
  }
}

std::size_t PacedSender::footprint_bytes() const {
  return sizeof(*this) + payload_.capacity() * sizeof(std::int32_t) +
         acked_.capacity() / 8 + sent_at_.capacity() * sizeof(sim::Time) +
         acks_after_.capacity() * sizeof(std::int8_t);
}

sim::Time PacedSender::rto() const {
  const sim::Time base = rtt_valid_ ? 4 * rtt_ : 10 * sim::kMillisecond;
  return std::max(base, kMinRto);
}

void PacedSender::reroute(RouteRef route) {
  if (finished()) return;
  if (route == nullptr) {
    // No path left to the receiver: give up. The TERM control packet is
    // offered to the old route and dropped at the down link.
    complete(FlowOutcome::kTerminated);
    return;
  }
  ctx_.route = std::move(route);
}

std::int64_t PacedSender::bytes_unacked() const {
  return ctx_.spec.size_bytes - result_.bytes_acked;
}

std::int64_t PacedSender::remaining_bytes() const { return bytes_unacked(); }

PacketPtr PacedSender::make_forward(PacketType type) {
  PacketPtr p = make_packet();
  p->flow = ctx_.spec.id;
  p->type = type;
  p->src = ctx_.spec.src;
  p->dst = ctx_.spec.dst;
  p->path = ctx_.route;
  p->reversed = false;
  p->hop = 0;
  p->sent_time = now();
  p->size_bytes = kControlBytes;
  return p;
}

void PacedSender::send_syn() { send_control(PacketType::kSyn); }

void PacedSender::send_control(PacketType type) {
  auto p = make_forward(type);
  decorate(*p);
  ++result_.packets_sent;
  ctx_.local->send(std::move(p));
}

void PacedSender::set_rate(double bps) {
  const double old = rate_bps_;
  rate_bps_ = bps;
  if (finished() || !started_) return;
  if (bps <= 0.0) {
    if (pace_pending_) {
      sim().cancel(pace_event_);
      pace_pending_ = false;
    }
    return;
  }
  if (pace_pending_ && old == bps) return;
  // Re-pace the pending transmission at the new rate: a large rate jump
  // must not wait out a gap computed at the old (possibly tiny) rate.
  kick_pacer();
}

void PacedSender::kick_pacer() {
  if (finished() || !started_ || rate_bps_ <= 0.0) return;
  if (pace_pending_) {
    sim().cancel(pace_event_);
    pace_pending_ = false;
  }
  const sim::Time gap = sim::transmission_time(kMtuBytes, rate_bps_);
  const sim::Time at = std::max(now(), last_data_sent_ + gap);
  pace_pending_ = true;
  pace_event_ = sim().schedule_at(at, [this] {
    pace_pending_ = false;
    pace_next();
  });
}

int PacedSender::pick_packet_to_send() {
  // Prefer the lowest-index expired unacked packet; otherwise the next
  // never-sent packet.
  const sim::Time deadline = now() - rto();
  for (std::int64_t i = cum_ack_; i < next_new_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!acked_[idx] && sent_at_[idx] <= deadline) return static_cast<int>(i);
  }
  if (next_new_ < num_packets_) return static_cast<int>(next_new_++);
  return -1;
}

void PacedSender::pace_next() {
  if (finished() || rate_bps_ <= 0.0) return;
  const int idx = pick_packet_to_send();
  if (idx >= 0) {
    send_data_packet(static_cast<std::size_t>(idx));
    // Pace the next transmission one serialization time later.
    const std::int32_t on_wire =
        payload_[static_cast<std::size_t>(idx)] + kHeaderBytes;
    const sim::Time gap = sim::transmission_time(on_wire, rate_bps_);
    pace_pending_ = true;
    pace_event_ = sim().schedule_in(gap, [this] {
      pace_pending_ = false;
      pace_next();
    });
    return;
  }
  // Everything is in flight: wake up at the earliest possible expiry.
  sim::Time earliest = sim::kTimeInfinity;
  const sim::Time timeout = rto();
  for (std::int64_t i = cum_ack_; i < next_new_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!acked_[idx]) earliest = std::min(earliest, sent_at_[idx] + timeout);
  }
  if (earliest == sim::kTimeInfinity) return;  // all acked; complete() imminent
  pace_pending_ = true;
  pace_event_ =
      sim().schedule_in(std::max<sim::Time>(earliest - now(), 0), [this] {
        pace_pending_ = false;
        pace_next();
      });
}

void PacedSender::send_data_packet(std::size_t idx) {
  auto p = make_forward(PacketType::kData);
  p->seq = static_cast<std::int64_t>(idx) * kMaxPayloadBytes;
  p->payload = payload_[idx];
  p->size_bytes = p->payload + kHeaderBytes;
  decorate(*p);
  if (sent_at_[idx] != sim::kTimeInfinity) ++result_.retransmissions;
  sent_at_[idx] = now();
  acks_after_[idx] = 0;
  last_data_sent_ = now();
  ++result_.packets_sent;
  ctx_.local->send(std::move(p));
}

void PacedSender::update_rtt(const Packet& p) {
  // sent_time is echoed per packet, so the sample is valid even for
  // retransmitted segments.
  const sim::Time sample = now() - p.sent_time;
  if (sample <= 0) return;
  if (!rtt_valid_) {
    rtt_ = sample;
    rtt_valid_ = true;
  } else {
    rtt_ = (7 * rtt_ + sample) / 8;
  }
}

void PacedSender::record_ack(const Packet& p) {
  if (p.type != PacketType::kAck) return;
  const auto idx = static_cast<std::size_t>(p.seq / kMaxPayloadBytes);
  if (idx >= acked_.size() || acked_[idx]) return;
  acked_[idx] = true;
  ++acked_count_;
  result_.bytes_acked += payload_[idx];
  while (cum_ack_ < num_packets_ &&
         acked_[static_cast<std::size_t>(cum_ack_)]) {
    ++cum_ack_;
  }
  // Fast retransmit: an unacked packet overtaken by three later acks is
  // considered lost (forced to expiry so the pacer resends it next).
  bool forced = false;
  for (auto j = static_cast<std::size_t>(cum_ack_); j < idx; ++j) {
    if (acked_[j] || sent_at_[j] == sim::kTimeInfinity) continue;
    if (acks_after_[j] < kDupAckThreshold) {
      if (++acks_after_[j] == kDupAckThreshold) {
        sent_at_[j] = std::min(sent_at_[j], now() - rto());
        forced = true;
      }
    }
  }
  if (forced) kick_pacer();
}

void PacedSender::on_packet(const PacketPtr& p) {
  if (finished()) {
    // Loss hardening keeps the agent alive past completion to confirm
    // the TERM handshake; the TermAck cancels the retry timer.
    if (p->type == PacketType::kTermAck && !term_acked_) {
      term_acked_ = true;
      if (term_retry_pending_) {
        sim().cancel(retry_event_);
        term_retry_pending_ = false;
      }
    }
    return;
  }
  got_reverse_ = true;
  update_rtt(*p);
  record_ack(*p);
  on_reverse(p);
  if (!finished() && acked_count_ == num_packets_) {
    complete(FlowOutcome::kCompleted);
  }
}

std::int64_t PacedSender::unsent_tail_bytes() const {
  std::int64_t total = 0;
  for (std::int64_t i = next_new_; i < num_packets_; ++i)
    total += payload_[static_cast<std::size_t>(i)];
  return total;
}

std::int64_t PacedSender::shrink_tail(std::int64_t bytes) {
  std::int64_t removed = 0;
  while (bytes > removed && num_packets_ > next_new_) {
    removed += payload_.back();
    payload_.pop_back();
    acked_.pop_back();
    sent_at_.pop_back();
    acks_after_.pop_back();
    --num_packets_;
  }
  if (removed == 0) return 0;
  cum_ack_ = std::min(cum_ack_, num_packets_);
  last_payload_ = payload_.empty() ? 0 : payload_.back();
  ctx_.spec.size_bytes -= removed;
  result_.spec.size_bytes = ctx_.spec.size_bytes;
  // Everything left may already be acknowledged.
  if (!finished() && started_ && acked_count_ == num_packets_) {
    complete(FlowOutcome::kCompleted);
  }
  return removed;
}

bool PacedSender::extend_tail(std::int64_t bytes) {
  if (finished() || bytes <= 0) return false;
  // Top up the final packet if it is partial and not yet on the wire.
  if (num_packets_ > next_new_ && payload_.back() < kMaxPayloadBytes) {
    const std::int32_t add = static_cast<std::int32_t>(std::min<std::int64_t>(
        kMaxPayloadBytes - payload_.back(), bytes));
    payload_.back() += add;
    bytes -= add;
  }
  while (bytes > 0) {
    const auto add = static_cast<std::int32_t>(
        std::min<std::int64_t>(kMaxPayloadBytes, bytes));
    payload_.push_back(add);
    acked_.push_back(false);
    sent_at_.push_back(sim::kTimeInfinity);
    acks_after_.push_back(0);
    ++num_packets_;
    bytes -= add;
  }
  last_payload_ = payload_.back();
  std::int64_t total = 0;
  for (auto pb : payload_) total += pb;
  ctx_.spec.size_bytes = total;
  result_.spec.size_bytes = total;
  // Wake the pacer: it may be sleeping on an RTO-scale retry.
  kick_pacer();
  return true;
}

void PacedSender::complete(FlowOutcome outcome) {
  assert(outcome != FlowOutcome::kPending);
  if (finished()) return;
  result_.outcome = outcome;
  result_.finish_time = now();
  if (pace_pending_) {
    sim().cancel(pace_event_);
    pace_pending_ = false;
  }
  // rate_bps_ deliberately keeps its final granted value: every
  // transmission path below is finished()-guarded, and the hybrid
  // backend reads it as the fluid-handoff seed (handoff_rate_bps).
  // A never-started flow (terminated by a pre-start link failure) has
  // no network state to release: no TERM.
  if (started_ && send_term_on_complete()) {
    send_control(PacketType::kTerm);
    // Loss hardening: a lost TERM (or TermAck) must not strand switch
    // state — retransmit on a capped-backoff timer until acknowledged.
    // Gated on the flag because the timer schedules events, which would
    // shift sequence numbers on the byte-identical golden path.
    if (ctx_.topo->loss_hardening()) arm_term_retry();
  }
  if (ctx_.on_done) ctx_.on_done(result_);
}

void PacedSender::arm_term_retry() {
  // The timer slot is shared with the SYN retry; a hardened flow small
  // enough to finish inside the SYN RTO still has that timer pending.
  if (syn_pending_) {
    sim().cancel(retry_event_);
    syn_pending_ = false;
  }
  const int shift = std::min<int>(term_retries_, 6);
  const sim::Time backoff =
      std::min<sim::Time>(rto() << shift, kTermBackoffCap);
  term_retry_pending_ = true;
  retry_event_ = sim().schedule_in(backoff, [this] {
    term_retry_pending_ = false;
    term_retry();
  });
}

void PacedSender::term_retry() {
  if (term_acked_ || term_retries_ >= kMaxTermRetries) return;
  ++term_retries_;
  send_control(PacketType::kTerm);
  arm_term_retry();
}

void EchoReceiver::on_packet(const PacketPtr& p) {
  PacketType reply_type;
  switch (p->type) {
    case PacketType::kSyn:
      reply_type = PacketType::kSynAck;
      break;
    case PacketType::kData:
      bytes_received_ += p->payload;
      reply_type = PacketType::kAck;
      break;
    case PacketType::kProbe:
      reply_type = PacketType::kProbeAck;
      break;
    case PacketType::kTerm:
      reply_type = PacketType::kTermAck;
      break;
    default:
      return;  // reverse packets are not for the receiver
  }
  auto reply = make_reply(*p, reply_type);
  decorate_reply(*reply, *p);
  ctx_.local->send(std::move(reply));
  if (p->type == PacketType::kTerm && !saw_term_) {
    // The TermAck is on the wire; nothing further arrives on this flow.
    // Notify the harness (streaming mode retires the receiver here).
    saw_term_ = true;
    if (ctx_.on_done) ctx_.on_done(FlowResult{});
  }
}

void EchoReceiver::decorate_reply(Packet& reply, const Packet& data) {
  (void)reply;
  (void)data;
}

}  // namespace pdq::net
