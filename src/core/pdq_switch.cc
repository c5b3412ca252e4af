#include "core/pdq_switch.h"

#include <algorithm>
#include <cassert>

#include "net/topology.h"

namespace pdq::core {

void PdqLinkController::attach(net::Port& port) {
  net::LinkController::attach(port);
  self_ = port.owner().id();
  r_pdq_bps_ = cfg_.r_pdq_fraction * port.link().rate_bps;
  capacity_bps_ = r_pdq_bps_;
  // The periodic rate-controller / GC loop starts dormant: the link is
  // idle, so every tick until the first packet would be a no-op. The
  // virtual grid is anchored here; wake_rate_controller() re-enters it
  // at exactly the instants the always-on loop would have ticked.
  tick_dormant_ = true;
  dormant_anchor_ = now();
  dormant_interval_ = static_cast<sim::Time>(
      cfg_.rc_interval_rtts * static_cast<double>(cfg_.default_rtt));
  assert(dormant_interval_ > 0);
  dormant_seq_ = port.owner().topo().sim().reserve_event_order();
}

net::NodeId PdqLinkController::my_id() const { return self_; }

sim::Time PdqLinkController::now() const {
  return port_->owner().topo().sim().now();
}

int PdqLinkController::find(net::FlowId f) const {
  ++scan_ops_;
  const std::uint32_t* i = index_.find(f);
  if (i == nullptr) return -1;
  assert(list_[*i].flow == f);
  return static_cast<int>(*i);
}

void PdqLinkController::retire(const FlowEntry& e) {
  if (e.sending()) --num_sending_;
  if (e.rtt > 0) {
    rtt_sum_ -= e.rtt;
    --rtt_count_;
  }
}

void PdqLinkController::set_rate(FlowEntry& e, double rate) {
  const bool was = e.sending();
  e.rate_bps = rate;
  const bool is = e.sending();
  num_sending_ += static_cast<int>(is) - static_cast<int>(was);
}

void PdqLinkController::set_rtt(FlowEntry& e, sim::Time rtt) {
  if (e.rtt > 0) {
    rtt_sum_ -= e.rtt;
    --rtt_count_;
  }
  e.rtt = rtt;
  if (e.rtt > 0) {
    rtt_sum_ += e.rtt;
    ++rtt_count_;
  }
}

void PdqLinkController::reindex_from(std::size_t from) {
  for (std::size_t i = from; i < list_.size(); ++i) {
    index_[list_[i].flow] = static_cast<std::uint32_t>(i);
    ++scan_ops_;
  }
}

void PdqLinkController::remove(net::FlowId f) {
  const int i = find(f);
  if (i < 0) return;
  const auto idx = static_cast<std::size_t>(i);
  retire(list_[idx]);
  index_.erase(f);
  list_.erase(list_.begin() + i);
  reindex_from(idx);
  touch(idx);
}

void PdqLinkController::reset_state() {
  // Everything derived from per-flow soft state goes; configuration and
  // tick machinery (dormancy grid, capacity) survive the "reboot". The
  // paper's design tolerates this: switches keep no hard state, so the
  // next forward packet of every live flow re-adds its entry.
  list_.clear();
  index_.clear();
  prefix_.clear();
  prefix_clean_ = 0;
  num_sending_ = 0;
  rtt_sum_ = 0;
  rtt_count_ = 0;
  overflow_flows_.clear();
  overflow_count_estimate_ = 0;
  last_unpause_time_ = -1;
  last_unpaused_flow_ = net::kInvalidFlow;
}

void PdqLinkController::granted_flows(std::vector<net::GrantInfo>& out) const {
  for (const auto& e : list_) {
    if (e.rate_bps <= 0.0 && e.granted_bps <= 0.0) continue;
    net::GrantInfo g;
    g.flow = e.flow;
    g.rate_bps = std::max(e.rate_bps, e.granted_bps);
    g.last_seen = e.last_seen;
    out.push_back(g);
  }
}

std::size_t PdqLinkController::resort(std::size_t i) {
  FlowEntry e = list_[i];
  list_.erase(list_.begin() + static_cast<std::ptrdiff_t>(i));
  const Criticality c = e.criticality();
  auto pos = std::lower_bound(
      list_.begin(), list_.end(), c,
      [](const FlowEntry& fe, const Criticality& key) {
        return fe.criticality() < key;
      });
  const auto idx = static_cast<std::size_t>(pos - list_.begin());
  list_.insert(pos, std::move(e));
  peak_list_size_ = std::max(peak_list_size_, list_.size());
  // Only entries in [min(i, idx), max(i, idx)] changed position.
  const std::size_t lo = std::min(i, idx);
  const std::size_t hi = std::max(i, idx);
  for (std::size_t s = lo; s <= hi; ++s) {
    index_[list_[s].flow] = static_cast<std::uint32_t>(s);
    ++scan_ops_;
  }
  touch(lo);
  return idx;
}

std::size_t PdqLinkController::list_limit() const {
  // Store the most critical 2*kappa flows (kappa = sending flows), with a
  // small floor so short lists never thrash, capped by the memory bound M.
  const auto kappa = static_cast<std::size_t>(num_sending_);
  const std::size_t want = std::max<std::size_t>(2 * kappa, 8);
  return std::min(want, static_cast<std::size_t>(cfg_.max_flows_M));
}

const PdqLinkController::PrefixEntry& PdqLinkController::ensure_prefix(
    std::size_t j) {
  assert(j <= list_.size());
  if (prefix_.size() < list_.size() + 1) prefix_.resize(list_.size() + 1);
  if (prefix_clean_ > list_.size()) prefix_clean_ = list_.size();
  const sim::Time t = now();
  std::size_t s = std::min(prefix_clean_, j);
  // Roll back past positions whose counted provisional grants expired
  // (valid_until is nonincreasing over the clean range, so this stops at
  // the first still-valid position; position 0 is always valid).
  while (s > 0 && prefix_[s].valid_until <= t) --s;
  if (s >= j) return prefix_[j];

  // Resume the exact Algorithm-2 accumulation from the last clean
  // position. Every arithmetic step and its order match the naive
  // front-to-back walk, so cached results are bit-identical to it.
  const double K = cfg_.early_start ? cfg_.early_start_K : 0.0;
  for (std::size_t i = s; i < j; ++i) {
    const FlowEntry& e = list_[i];
    PrefixEntry out = prefix_[i];
    const sim::Time ertt = e.rtt > 0 ? e.rtt : cfg_.default_rtt;
    const double tx_in_rtts =
        static_cast<double>(e.expected_tx) / static_cast<double>(ertt);
    if (tx_in_rtts < K && out.early_start_x < K) {
      out.early_start_x += tx_in_rtts;
    } else {
      double effective = e.rate_bps;
      // Honor a recent provisional grant that has not been committed yet.
      if (e.granted_at >= 0 && t - e.granted_at < 2 * ertt) {
        effective = std::max(effective, e.granted_bps);
        if (e.granted_bps > e.rate_bps) {
          out.valid_until =
              std::min(out.valid_until, e.granted_at + 2 * ertt);
        }
      }
      out.avail_used += effective;
    }
    out.committed += e.rate_bps;
    if (e.pause_by == my_id()) ++out.paused_here;
    prefix_[i + 1] = out;
    ++scan_ops_;
  }
  prefix_clean_ = std::max(prefix_clean_, j);
  return prefix_[j];
}

double PdqLinkController::avail_bw(std::size_t index) {
  // Algorithm 2: flows more critical than `index` either consume their
  // committed rate R_i or, if nearly completed (T_i < K * RTT_i) and the
  // Early Start budget X < K allows, are exempted so the next flow can
  // start while they drain.
  const std::size_t j = std::min(index, list_.size());
  const double A = ensure_prefix(j).avail_used;
  if (A >= capacity_bps_) return 0.0;
  return capacity_bps_ - A;
}

double PdqLinkController::committed_rate_sum() {
  return ensure_prefix(list_.size()).committed;
}

void PdqLinkController::on_enqueue() {
  // Any packet occupying the output queue must restart the rate
  // controller: its next on-grid tick samples the queue depth.
  wake_rate_controller();
}

void PdqLinkController::on_forward(net::Packet& p) {
  if (p.flow == net::kInvalidFlow) return;
  wake_rate_controller();
  auto& hdr = p.pdq;

  if (p.type == net::PacketType::kTerm) {
    remove(p.flow);
    return;
  }

  // Algorithm 1, line 1: paused by some other switch -> forget the flow.
  if (hdr.pause_by != net::kInvalidNode && hdr.pause_by != my_id()) {
    remove(p.flow);
    return;
  }

  int idx = find(p.flow);
  if (idx < 0) {
    const std::size_t limit = list_limit();
    const Criticality incoming{hdr.deadline, hdr.expected_tx, p.flow};
    const bool fits = list_.size() < limit ||
                      more_critical(incoming, list_.back().criticality());
    if (!fits) {
      // Beyond the state cap: hand the flow to the RCP-style fallback so
      // leftover bandwidth is still used (S3.3.1).
      overflow_flows_.insert(p.flow);
      hdr.rate_bps = std::min(hdr.rate_bps, rcp_fallback_rate());
      if (hdr.rate_bps <= 0.0) {
        hdr.rate_bps = 0.0;
        hdr.pause_by = my_id();
      } else {
        hdr.pause_by = net::kInvalidNode;
      }
      return;
    }
    FlowEntry e;
    e.flow = p.flow;
    e.rate_bps = 0.0;
    e.pause_by = net::kInvalidNode;
    list_.push_back(e);
    idx = static_cast<int>(list_.size() - 1);
    index_[p.flow] = static_cast<std::uint32_t>(idx);
  }

  // Update <D_i, T_i, RTT_i> from the header and restore sort order.
  auto& entry = list_[static_cast<std::size_t>(idx)];
  entry.deadline = hdr.deadline;
  entry.expected_tx = hdr.expected_tx;
  if (hdr.rtt > 0) set_rtt(entry, hdr.rtt);
  entry.last_seen = now();
  touch(static_cast<std::size_t>(idx));
  std::size_t pos = resort(static_cast<std::size_t>(idx));
  // Evict the least critical entries once sorted (they can re-enter via
  // probes when the list has room again). The newcomer was admitted only
  // if more critical than the old tail, so it survives.
  const std::size_t limit_now = list_limit();
  while (list_.size() > limit_now && list_.back().flow != p.flow) {
    retire(list_.back());
    index_.erase(list_.back().flow);
    list_.pop_back();
  }
  assert(pos < list_.size() && list_[pos].flow == p.flow);
  FlowEntry& e = list_[pos];

  const double requested = hdr.rate_bps;
  const double W = std::min(avail_bw(pos), hdr.rate_bps);
  const bool not_sending_now = e.pause_by != net::kInvalidNode;
  // Hysteresis target: what this flow could reasonably get *right now* —
  // its request capped by the rate-controlled capacity. Comparing against
  // the raw request would wedge every paused flow whenever the rate
  // controller temporarily depresses C (an Early-Start queue transient).
  const double entitled = std::min(requested, capacity_bps_);
  const bool substantial =
      !not_sending_now || W >= cfg_.unpause_fraction * entitled;
  if (W >= cfg_.min_grant_bps && substantial) {
    const bool not_sending = not_sending_now;
    // Unpausing happens in criticality order ("the switch accepts flows
    // according to their criticality"): a flow paused by this switch may
    // not leapfrog a more critical flow that is also waiting here.
    // Without this, transient slack created by committed-rate fluctuation
    // is granted to whichever paused flow happens to probe first.
    bool leapfrog = false;
    if (not_sending) {
      leapfrog = ensure_prefix(pos).paused_here > 0;
    }
    const bool dampened =
        not_sending && last_unpause_time_ >= 0 &&
        last_unpaused_flow_ != p.flow &&
        now() - last_unpause_time_ < cfg_.dampening;
    if (leapfrog || dampened) {
      hdr.pause_by = my_id();
      e.pause_by = my_id();
      e.granted_bps = 0.0;
      e.granted_at = -1;
    } else {
      const bool was_not_sending = not_sending || !e.sending();
      hdr.pause_by = net::kInvalidNode;
      hdr.rate_bps = W;
      e.granted_bps = W;
      e.granted_at = now();
      if (was_not_sending) {
        last_unpause_time_ = now();
        last_unpaused_flow_ = p.flow;
      }
    }
  } else {
    hdr.pause_by = my_id();
    e.pause_by = my_id();
    e.granted_bps = 0.0;
    e.granted_at = -1;
  }
  touch(pos);
}

void PdqLinkController::on_reverse(net::Packet& p) {
  if (p.flow == net::kInvalidFlow) return;
  auto& hdr = p.pdq;

  if (p.type == net::PacketType::kTermAck) {
    remove(p.flow);
    return;
  }

  // Algorithm 3.
  if (hdr.pause_by != net::kInvalidNode && hdr.pause_by != my_id()) {
    remove(p.flow);
  }
  if (hdr.pause_by != net::kInvalidNode) {
    hdr.rate_bps = 0.0;
  }
  const int idx = find(p.flow);
  if (idx >= 0) {
    auto& e = list_[static_cast<std::size_t>(idx)];
    e.pause_by = hdr.pause_by;
    if (cfg_.suppressed_probing) {
      hdr.inter_probe_rtts =
          std::max(hdr.inter_probe_rtts,
                   cfg_.probing_X * static_cast<double>(idx));
    }
    set_rate(e, hdr.rate_bps);
    e.granted_bps = hdr.rate_bps;  // the commit supersedes the grant
    e.granted_at = hdr.rate_bps > 0.0 ? now() : -1;
    e.last_seen = now();
    touch(static_cast<std::size_t>(idx));
  }
}

sim::Time PdqLinkController::avg_rtt() const {
  return rtt_count_ > 0 ? rtt_sum_ / rtt_count_ : cfg_.default_rtt;
}

void PdqLinkController::schedule_tick(sim::Time interval) {
  port_->owner().topo().sim().schedule_in(interval,
                                          [this] { rate_controller_tick(); });
}

void PdqLinkController::wake_rate_controller() {
  if (!tick_dormant_) return;
  tick_dormant_ = false;
  // Re-enter the virtual grid. Grid ticks strictly before now() all saw
  // an idle link and were exact no-ops. A tick due exactly *now* needs
  // care: the always-on tick at this instant carries tie key
  // (vtime = previous grid point); if that key orders before the event
  // waking us, the tick already "ran" as a no-op (the link was still
  // idle when it would have executed) — but if it orders after, the
  // chain's tick would observe the state this event is introducing, so
  // it must really run, in its chain position. Re-entered ticks
  // tie-order as if scheduled by the previous (virtual) grid tick.
  const sim::Time t = now();
  assert(t >= dormant_anchor_);
  sim::Simulator& sim = port_->owner().topo().sim();
  const sim::Time off = t - dormant_anchor_;
  if (off > 0 && off % dormant_interval_ == 0) {
    const sim::Time prev = t - dormant_interval_;
    // For the first grid point the chain tick's full (vtime, seq) key is
    // known exactly (reserved at dormancy entry); later re-entries fall
    // back to the vtime comparison, resolving exact-vtime ties as
    // tick-first (the virtual tick's ancient vtime at `prev` makes its
    // schedulings earlier than same-instant competitors' in the
    // overwhelming case).
    const bool due =
        off == dormant_interval_
            ? (prev > sim.current_event_vtime() ||
               (prev == sim.current_event_vtime() &&
                dormant_seq_ > sim.current_event_seq()))
            : prev > sim.current_event_vtime();
    if (due) {
      if (off == dormant_interval_) {
        sim.schedule_at_reserved(t, prev, dormant_seq_,
                                 [this] { rate_controller_tick(); });
      } else {
        sim.schedule_at_as_if(t, prev, [this] { rate_controller_tick(); });
      }
      return;
    }
  }
  const auto n = static_cast<sim::Time>(off / dormant_interval_) + 1;
  if (n == 1) {
    sim.schedule_at_reserved(dormant_anchor_ + dormant_interval_,
                             dormant_anchor_, dormant_seq_,
                             [this] { rate_controller_tick(); });
  } else {
    sim.schedule_at_as_if(dormant_anchor_ + n * dormant_interval_,
                          dormant_anchor_ + (n - 1) * dormant_interval_,
                          [this] { rate_controller_tick(); });
  }
}

void PdqLinkController::rate_controller_tick() {
  const sim::Time rtt = avg_rtt();

  // Garbage-collect entries whose sender went silent (lost TERM, crashed
  // sender). Keeps a lost pause/terminate message from wedging the link.
  const sim::Time cutoff = now() - cfg_.gc_timeout;
  std::size_t w = 0;
  std::size_t first_removed = list_.size();
  for (std::size_t r = 0; r < list_.size(); ++r) {
    if (list_[r].last_seen < cutoff) {
      retire(list_[r]);
      index_.erase(list_[r].flow);
      if (first_removed == list_.size()) first_removed = w;
      continue;
    }
    if (w != r) list_[w] = std::move(list_[r]);
    ++w;
  }
  if (w != list_.size()) {
    list_.resize(w);
    reindex_from(first_removed);
    touch(first_removed);
  }

  // C = max(0, r_PDQ - q / (2 RTT)): drain whatever queue Early Start or
  // transient inconsistency built up.
  const double q_bits = static_cast<double>(port_->queue().bytes()) * 8.0;
  const double drain_bps =
      q_bits / (2.0 * sim::to_seconds(rtt));
  capacity_bps_ = std::max(0.0, r_pdq_bps_ - drain_bps);

  overflow_count_estimate_ = overflow_flows_.size();
  overflow_flows_.clear();

  const auto interval =
      static_cast<sim::Time>(cfg_.rc_interval_rtts * static_cast<double>(rtt));
  const auto default_interval = static_cast<sim::Time>(
      cfg_.rc_interval_rtts * static_cast<double>(cfg_.default_rtt));
  if (list_.empty() && port_->queue().empty() &&
      overflow_count_estimate_ == 0 && capacity_bps_ == r_pdq_bps_ &&
      interval == default_interval) {
    // The link is idle and this tick's pitch already matches the idle
    // pitch (an empty list keeps avg_rtt() at cfg_.default_rtt), so every
    // future tick would be this exact no-op on a uniform grid. Suspend
    // the loop; wake_rate_controller() re-enters the grid on the next
    // packet. (A tick whose GC just emptied the list reschedules once at
    // its pre-GC pitch; the next tick then goes dormant.)
    tick_dormant_ = true;
    dormant_anchor_ = now();
    dormant_interval_ = interval;
    // The always-on engine would schedule the anchor+interval tick right
    // here; reserving its seq makes the first grid re-entry tie-exact.
    dormant_seq_ = port_->owner().topo().sim().reserve_event_order();
    return;
  }
  schedule_tick(interval);
}

double PdqLinkController::rcp_fallback_rate() {
  const double committed = committed_rate_sum();
  const double leftover = std::max(0.0, capacity_bps_ - committed);
  const auto n = std::max<std::size_t>(
      {overflow_count_estimate_, overflow_flows_.size(), 1});
  return leftover / static_cast<double>(n);
}

void install_pdq(net::Topology& topo, const PdqConfig& cfg) {
  topo.install_controllers([&](net::Port& port) {
    (void)port;
    return std::make_unique<PdqLinkController>(cfg);
  });
}

}  // namespace pdq::core
