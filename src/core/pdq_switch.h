// PDQ switch logic: one PdqLinkController per output port.
//
// Implements the paper's Algorithms 1-3:
//  - Algorithm 1 (on forward packets): add/evict flows in the per-link
//    criticality-sorted list, accept or pause, with Dampening and the
//    RCP-fallback path for flows beyond the state cap M.
//  - Algorithm 2 (Availbw): available bandwidth for the j-th most critical
//    flow, exempting "nearly completed" flows (Early Start, budget K).
//  - Algorithm 3 (on reverse packets): commit the path-wide decision into
//    per-flow state and stretch probe intervals (Suppressed Probing).
// Plus the rate controller: C = max(0, r_PDQ - q/(2*RTT)), updated every
// 2 average RTTs, which both drains Early-Start queues and absorbs
// transient inconsistency (e.g. lost pause messages).
//
// Per-packet cost is O(1) amortized (the paper's S3.3/S4.2 design point):
//  - a flat FlowId -> index hash map (net/id_map.h) replaces the linear
//    list scan;
//  - Algorithm 2 prefix walks (available bandwidth, Early Start budget,
//    committed-rate sums, paused-ahead counts) are served from a
//    dirty-tracked cached prefix array that resumes the exact original
//    left-to-right accumulation from the last clean position, so results
//    are bit-identical to a fresh O(k) walk;
//  - num_sending()/avg_rtt() read incrementally maintained aggregates;
//  - the rate controller goes dormant on idle links (empty flow list,
//    empty queue) and re-enters its exact tick grid on the next packet,
//    so idle ports schedule no periodic events at all.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/criticality.h"
#include "core/pdq_config.h"
#include "net/id_map.h"
#include "net/link_controller.h"
#include "net/node.h"

namespace pdq::core {

class PdqLinkController : public net::LinkController {
 public:
  explicit PdqLinkController(PdqConfig cfg) : cfg_(cfg) {}

  void attach(net::Port& port) override;
  void on_forward(net::Packet& p) override;
  void on_reverse(net::Packet& p) override;
  void on_enqueue() override;
  std::uint64_t flow_scan_ops() const override { return scan_ops_; }
  /// Switch-reset fault: wipes the flow list, prefix cache and
  /// aggregates as if the switch rebooted. Flows re-register from the
  /// headers their next forward packet carries (Algorithm 1), so the
  /// link recovers without sender cooperation.
  void reset_state() override;
  /// Auditor support: every entry with a committed or fresh provisional
  /// rate, i.e. everything avail_bw() counts against capacity.
  void granted_flows(std::vector<net::GrantInfo>& out) const override;

  /// Per-flow state for link `e` (paper S3.3.1), kept sorted by
  /// criticality.
  struct FlowEntry {
    net::FlowId flow = net::kInvalidFlow;
    double rate_bps = 0.0;                     // R_i (committed on reverse)
    net::NodeId pause_by = net::kInvalidNode;  // P_i
    sim::Time deadline = sim::kTimeInfinity;   // D_i (absolute)
    sim::Time expected_tx = 0;                 // T_i
    sim::Time rtt = 0;                         // RTT_i
    sim::Time last_seen = 0;
    /// Rate provisionally granted on the forward path. Counted by
    /// avail_bw() until the reverse-path commit lands, so that two flows
    /// racing through their first RTT cannot both be granted the full
    /// link (the committed R_i alone is half an RTT stale).
    double granted_bps = 0.0;
    sim::Time granted_at = -1;

    Criticality criticality() const { return {deadline, expected_tx, flow}; }
    bool sending() const { return rate_bps > 0.0; }
  };

  const std::vector<FlowEntry>& flow_list() const { return list_; }
  double capacity_bps() const { return capacity_bps_; }
  int num_sending() const { return num_sending_; }
  std::size_t peak_list_size() const { return peak_list_size_; }

  /// Algorithm 2. Exposed for unit tests. Served from the prefix cache
  /// (hence non-const); bit-identical to the naive O(k) walk.
  double avail_bw(std::size_t index);

  /// Exact left-to-right sum of committed rates R_i over the whole list
  /// (the rate the RCP fallback divides). Exposed for the prefix-cache
  /// property test.
  double committed_rate_sum();

 private:
  /// prefix_[i] summarizes entries [0, i): the Algorithm-2 accumulators
  /// plus a validity bound for time-dependent grant windows.
  struct PrefixEntry {
    double avail_used = 0.0;     // A: sum of counted effective rates
    double early_start_x = 0.0;  // X: Early Start budget consumed
    double committed = 0.0;      // sum of committed R_i
    std::int32_t paused_here = 0;  // entries with P_i == this switch
    /// The cached values above hold for any now() < valid_until: the
    /// earliest counted provisional-grant expiry (granted_at + 2*RTT).
    sim::Time valid_until = sim::kTimeInfinity;
  };

  int find(net::FlowId f) const;
  void remove(net::FlowId f);
  /// Re-sorts entry `i` after its criticality fields changed; returns its
  /// new index.
  std::size_t resort(std::size_t i);
  std::size_t list_limit() const;
  void rate_controller_tick();
  void schedule_tick(sim::Time interval);
  /// Re-arms the dormant rate controller on the next grid point.
  void wake_rate_controller();
  double rcp_fallback_rate();
  sim::Time avg_rtt() const;
  net::NodeId my_id() const;
  sim::Time now() const;

  // --- prefix cache plumbing ---
  /// Invalidate cached prefixes that include entry `i`.
  void touch(std::size_t i) {
    if (prefix_clean_ > i) prefix_clean_ = i;
  }
  /// Aggregate bookkeeping when an entry leaves the list.
  void retire(const FlowEntry& e);
  /// Writes `rate` into `e`, maintaining the num_sending aggregate.
  void set_rate(FlowEntry& e, double rate);
  /// Writes `rtt` into `e`, maintaining the avg_rtt aggregates.
  void set_rtt(FlowEntry& e, sim::Time rtt);
  /// Rebuilds index_ for positions [from, list_.size()).
  void reindex_from(std::size_t from);
  /// Ensures prefix_[0..j] is valid at now(); returns prefix_[j].
  const PrefixEntry& ensure_prefix(std::size_t j);

  PdqConfig cfg_;
  std::vector<FlowEntry> list_;
  double capacity_bps_ = 0.0;  // C, set by the rate controller
  double r_pdq_bps_ = 0.0;     // configured PDQ share of the link
  net::NodeId self_ = net::kInvalidNode;  // cached my_id()

  /// FlowId -> index into list_, kept exact across insert/evict/resort.
  net::IdMap<net::FlowId, std::uint32_t> index_;
  /// Incremental aggregates (exact integer bookkeeping).
  int num_sending_ = 0;
  sim::Time rtt_sum_ = 0;
  int rtt_count_ = 0;

  /// Dirty-tracked cached prefix array over list_; prefix_[0..prefix_clean_]
  /// is trustworthy modulo per-position valid_until.
  std::vector<PrefixEntry> prefix_;
  std::size_t prefix_clean_ = 0;

  /// Flow-entry visits in hot-path operations (map probes, prefix
  /// recompute steps, resort shifts) — the fig13 flowlist_scan_ops
  /// counter. Mutable: find() is conceptually const.
  mutable std::uint64_t scan_ops_ = 0;

  // Rate-controller dormancy: while the link is idle the periodic tick is
  // suspended; the virtual tick grid (anchor + n * interval) is re-entered
  // exactly on wake, so dormancy is invisible to the simulation.
  bool tick_dormant_ = false;
  sim::Time dormant_anchor_ = 0;
  sim::Time dormant_interval_ = 0;
  /// Seq reserved at dormancy entry — the exact tie-break position the
  /// always-on engine's tick at anchor+interval would occupy (it would
  /// have been scheduled by the tick that went dormant).
  std::uint64_t dormant_seq_ = 0;

  // Dampening state: the last time a non-sending flow was (provisionally)
  // accepted, and which flow it was.
  sim::Time last_unpause_time_ = -1;
  net::FlowId last_unpaused_flow_ = net::kInvalidFlow;

  // RCP-fallback bookkeeping: overflow flows seen this control interval.
  std::unordered_set<net::FlowId> overflow_flows_;
  std::size_t overflow_count_estimate_ = 0;

  std::size_t peak_list_size_ = 0;
};

/// Installs PDQ controllers on every output port of every node.
void install_pdq(net::Topology& topo, const PdqConfig& cfg);

}  // namespace pdq::core
