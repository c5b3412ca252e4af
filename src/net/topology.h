// The network container: nodes, links, routing.
//
// Paths are computed on demand (BFS shortest-path DAG, then bounded
// enumeration of equal-cost paths) and cached per (src, dst). ECMP selects
// among the cached paths by hashing the flow id, which matches the paper's
// flow-level ECMP assumption.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/route.h"
#include "net/types.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace pdq::net {

/// Default parameters from the paper's evaluation setup (Fig 2).
struct LinkDefaults {
  double rate_bps = 1e9;                         // 1 Gbps
  sim::Time prop_delay = sim::from_micros(0.1);  // 0.1 us per hop
  std::int64_t buffer_bytes = 4 << 20;           // 4 MByte switch buffer
};

inline constexpr sim::Time kDefaultProcessingDelay = 25 * sim::kMicrosecond;

class Topology {
 public:
  explicit Topology(sim::Simulator& sim, std::uint64_t seed = 1)
      : sim_(sim), rng_(seed) {}

  NodeId add_host(sim::Time processing_delay = 0);
  NodeId add_switch(sim::Time processing_delay = kDefaultProcessingDelay);

  /// Adds a duplex link (two simplex halves) between a and b.
  void add_duplex_link(NodeId a, NodeId b, const LinkDefaults& d);
  void add_duplex_link(NodeId a, NodeId b) {
    add_duplex_link(a, b, LinkDefaults{});
  }

  Node& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  Host& host(NodeId id);
  std::size_t num_nodes() const { return nodes_.size(); }
  const std::vector<NodeId>& host_ids() const { return host_ids_; }
  const std::vector<NodeId>& switch_ids() const { return switch_ids_; }
  std::vector<std::unique_ptr<SimplexLink>>& links() { return links_; }

  bool is_host(NodeId id) const;

  sim::Simulator& sim() { return sim_; }
  sim::Rng& rng() { return rng_; }

  /// Run-scoped loss-hardening switch (set by the harness when a fault
  /// plane with FaultSpec::harden_protocols is armed): senders
  /// retransmit TERM with timeout + capped backoff instead of
  /// fire-and-forget. Lives here rather than per-agent so agent sizeof
  /// (the peak_flow_bytes counter) stays at the golden baseline.
  bool loss_hardening() const { return loss_hardening_; }
  void set_loss_hardening(bool on) { loss_hardening_ = on; }

  /// All equal-cost shortest node paths from src to dst, capped at
  /// kMaxEcmpPaths, in a deterministic order. Cached.
  const std::vector<std::vector<NodeId>>& shortest_paths(NodeId src,
                                                         NodeId dst);

  /// Deterministic ECMP choice among shortest paths; `salt` lets M-PDQ
  /// subflows pick distinct paths.
  std::vector<NodeId> ecmp_path(FlowId flow, NodeId src, NodeId dst,
                                std::uint64_t salt = 0);

  /// Same ECMP choice as ecmp_path(), but returns the shared flyweight
  /// route (forward + reverse) cached per (src, dst, path index) — the
  /// per-flow route cost is one shared_ptr copy instead of a vector.
  /// Cached entries are invalidated when a link is added.
  RouteRef ecmp_route(FlowId flow, NodeId src, NodeId dst,
                      std::uint64_t salt = 0);

  /// Up to `k` link-disjoint paths (shortest first, greedy). In BCube this
  /// recovers the parallel paths through the server's multiple NICs that
  /// M-PDQ stripes subflows across. Cached.
  const std::vector<std::vector<NodeId>>& disjoint_paths(NodeId src,
                                                         NodeId dst,
                                                         int k = 8);

  /// Installs a fresh controller on every output port of every node.
  /// The factory may return nullptr to leave a port uncontrolled.
  template <typename Factory>
  void install_controllers(Factory&& make) {
    for (auto& n : nodes_) {
      for (auto& port : n->ports()) {
        auto c = make(*port);
        port->set_controller(std::move(c));
      }
    }
  }

  /// Installs a multi-queue discipline (net/multi_queue.h) on every
  /// output port of every node; the factory may return nullptr to leave
  /// a port on its single drop-tail FIFO. See also
  /// net::install_multi_queue() for the switches-only convenience.
  template <typename Factory>
  void install_multi_queues(Factory&& make) {
    for (auto& n : nodes_) {
      for (auto& port : n->ports()) {
        auto mq = make(*port);
        if (mq) port->set_multi_queue(std::move(mq));
      }
    }
  }

  /// Finds the port owning the link a->b (for instrumentation).
  Port* port_on_link(NodeId a, NodeId b) { return node(a).port_to(b); }

  /// Sets a random loss rate on both directions of the a<->b link.
  void set_link_drop_rate(NodeId a, NodeId b, double rate);

  /// Administratively brings both directions of the a<->b link down or
  /// up (scenario timelines: failures and recoveries). Reuses the
  /// add_duplex_link cache-invalidation path — shortest-path, route and
  /// disjoint-path caches are cleared, so subsequent lookups route
  /// around a down link (routes already held by in-flight packets stay
  /// valid; they are immutable flyweights). Bringing a link down also
  /// flushes both port queues (dropped packets count as wire drops);
  /// packets already serialized onto the wire are still delivered.
  void set_link_state(NodeId a, NodeId b, bool up);

  /// False while the a<->b link is administratively down.
  bool link_is_up(NodeId a, NodeId b) const;

  /// Monotonic counter bumped whenever derived path products go stale
  /// (add_duplex_link, set_link_state). External caches keyed on the
  /// topology — e.g. the flow-level simulator's capacities and resolved
  /// ECMP paths — compare against it to know when to recompute.
  std::uint64_t version() const { return version_; }

  std::int64_t total_queue_drops() const;
  std::int64_t total_wire_drops() const;
  /// Net events saved by transmit coalescing (node.cc) across all ports.
  std::uint64_t total_events_coalesced() const;
  /// Flow-state entries visited by controller hot paths (see
  /// LinkController::flow_scan_ops) across all ports.
  std::uint64_t total_flowlist_scan_ops() const;

  static constexpr std::size_t kMaxEcmpPaths = 32;

 private:
  std::vector<std::vector<NodeId>> compute_shortest_paths(NodeId src,
                                                          NodeId dst) const;

  sim::Simulator& sim_;
  sim::Rng rng_;
  bool loss_hardening_ = false;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<SimplexLink>> links_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<NodeId> host_ids_;
  std::vector<NodeId> switch_ids_;
  std::vector<bool> is_host_;
  /// pair_key(a, b) for every administratively-down link, both
  /// directions. Empty (the overwhelmingly common case) short-circuits
  /// every routing-time check.
  std::unordered_set<std::uint64_t> down_links_;
  std::uint64_t version_ = 0;
  std::unordered_map<std::uint64_t, std::vector<std::vector<NodeId>>>
      path_cache_;
  std::unordered_map<std::uint64_t, std::vector<std::vector<NodeId>>>
      disjoint_cache_;
  /// Flyweight RoutePairs, parallel to shortest_paths(src, dst); built
  /// lazily per chosen path index.
  std::unordered_map<std::uint64_t, std::vector<RouteRef>> route_cache_;
};

}  // namespace pdq::net
