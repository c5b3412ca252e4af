#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <unordered_set>

namespace pdq::net {

namespace {

std::uint64_t pair_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

/// SplitMix64: cheap, well-mixed hash for deterministic ECMP choice.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

NodeId Topology::add_host(sim::Time processing_delay) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Host>(*this, id, processing_delay));
  adjacency_.emplace_back();
  host_ids_.push_back(id);
  is_host_.push_back(true);
  return id;
}

NodeId Topology::add_switch(sim::Time processing_delay) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Switch>(*this, id, processing_delay));
  adjacency_.emplace_back();
  switch_ids_.push_back(id);
  is_host_.push_back(false);
  return id;
}

Host& Topology::host(NodeId id) {
  assert(is_host(id));
  return static_cast<Host&>(node(id));
}

bool Topology::is_host(NodeId id) const {
  return is_host_.at(static_cast<std::size_t>(id));
}

void Topology::add_duplex_link(NodeId a, NodeId b, const LinkDefaults& d) {
  assert(a != b);
  auto make = [&](NodeId from, NodeId to) {
    auto l = std::make_unique<SimplexLink>();
    l->id = static_cast<LinkId>(links_.size());
    l->from = from;
    l->to = to;
    l->rate_bps = d.rate_bps;
    l->prop_delay = d.prop_delay;
    links_.push_back(std::move(l));
    return links_.back().get();
  };
  SimplexLink* ab = make(a, b);
  SimplexLink* ba = make(b, a);
  ab->reverse = ba;
  ba->reverse = ab;
  node(a).add_port(*ab, d.buffer_bytes);
  node(b).add_port(*ba, d.buffer_bytes);
  adjacency_[static_cast<std::size_t>(a)].push_back(b);
  adjacency_[static_cast<std::size_t>(b)].push_back(a);
  // Topology changed: every derived path product is stale.
  path_cache_.clear();
  route_cache_.clear();
  disjoint_cache_.clear();
  ++version_;
}

const std::vector<std::vector<NodeId>>& Topology::shortest_paths(NodeId src,
                                                                 NodeId dst) {
  const auto key = pair_key(src, dst);
  auto it = path_cache_.find(key);
  if (it != path_cache_.end()) return it->second;
  auto [ins, _] = path_cache_.emplace(key, compute_shortest_paths(src, dst));
  return ins->second;
}

std::vector<std::vector<NodeId>> Topology::compute_shortest_paths(
    NodeId src, NodeId dst) const {
  const auto n = nodes_.size();
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(n, kInf);

  // BFS from dst so dist[] gives hops-to-destination; a forward DFS can
  // then walk strictly downhill to enumerate all shortest paths.
  std::queue<NodeId> bfs;
  dist[static_cast<std::size_t>(dst)] = 0;
  bfs.push(dst);
  while (!bfs.empty()) {
    const NodeId u = bfs.front();
    bfs.pop();
    for (NodeId v : adjacency_[static_cast<std::size_t>(u)]) {
      // Administratively-down links (both halves flip together) carry no
      // paths.
      if (!down_links_.empty() && down_links_.count(pair_key(u, v))) continue;
      // Hosts other than the endpoints may relay only in server-centric
      // topologies (BCube): allow transit through any multi-port host, but
      // never through single-port (leaf) hosts.
      if (v != src && v != dst && is_host_[static_cast<std::size_t>(v)] &&
          adjacency_[static_cast<std::size_t>(v)].size() < 2) {
        continue;
      }
      if (dist[static_cast<std::size_t>(v)] == kInf) {
        dist[static_cast<std::size_t>(v)] =
            dist[static_cast<std::size_t>(u)] + 1;
        bfs.push(v);
      }
    }
  }

  std::vector<std::vector<NodeId>> out;
  if (dist[static_cast<std::size_t>(src)] == kInf) return out;

  std::vector<NodeId> cur{src};
  // Iterative DFS enumerating paths that decrease dist by 1 per hop.
  struct Frame {
    NodeId node;
    std::size_t next_idx;
  };
  std::vector<Frame> stack{{src, 0}};
  while (!stack.empty() && out.size() < kMaxEcmpPaths) {
    Frame& f = stack.back();
    if (f.node == dst) {
      out.push_back(cur);
      stack.pop_back();
      cur.pop_back();
      continue;
    }
    const auto& adj = adjacency_[static_cast<std::size_t>(f.node)];
    bool descended = false;
    while (f.next_idx < adj.size()) {
      const NodeId v = adj[f.next_idx++];
      if (!down_links_.empty() && down_links_.count(pair_key(f.node, v))) {
        continue;
      }
      if (dist[static_cast<std::size_t>(v)] ==
          dist[static_cast<std::size_t>(f.node)] - 1) {
        stack.push_back({v, 0});
        cur.push_back(v);
        descended = true;
        break;
      }
    }
    if (!descended && f.next_idx >= adj.size()) {
      stack.pop_back();
      cur.pop_back();
    }
  }
  return out;
}

std::vector<NodeId> Topology::ecmp_path(FlowId flow, NodeId src, NodeId dst,
                                        std::uint64_t salt) {
  const auto& paths = shortest_paths(src, dst);
  assert(!paths.empty() && "no path between endpoints");
  const std::uint64_t h =
      mix64(static_cast<std::uint64_t>(flow) * 0x9e3779b97f4a7c15ULL + salt);
  return paths[h % paths.size()];
}

RouteRef Topology::ecmp_route(FlowId flow, NodeId src, NodeId dst,
                              std::uint64_t salt) {
  const auto& paths = shortest_paths(src, dst);
  assert(!paths.empty() && "no path between endpoints");
  const std::uint64_t h =
      mix64(static_cast<std::uint64_t>(flow) * 0x9e3779b97f4a7c15ULL + salt);
  const std::size_t pick = h % paths.size();
  auto& cached = route_cache_[pair_key(src, dst)];
  if (cached.size() < paths.size()) cached.resize(paths.size());
  if (cached[pick] == nullptr) cached[pick] = make_route(paths[pick]);
  return cached[pick];
}

const std::vector<std::vector<NodeId>>& Topology::disjoint_paths(NodeId src,
                                                                 NodeId dst,
                                                                 int k) {
  const auto key = pair_key(src, dst);
  auto it = disjoint_cache_.find(key);
  if (it != disjoint_cache_.end()) return it->second;

  std::vector<std::vector<NodeId>> paths;
  std::unordered_set<std::uint64_t> used_links;
  for (int round = 0; round < k; ++round) {
    // BFS shortest path avoiding links consumed by earlier paths. Leaf
    // hosts other than the endpoints never relay.
    std::vector<NodeId> prev(nodes_.size(), kInvalidNode);
    std::vector<bool> seen(nodes_.size(), false);
    std::queue<NodeId> q;
    q.push(src);
    seen[static_cast<std::size_t>(src)] = true;
    bool found = false;
    while (!q.empty() && !found) {
      const NodeId u = q.front();
      q.pop();
      for (NodeId v : adjacency_[static_cast<std::size_t>(u)]) {
        if (seen[static_cast<std::size_t>(v)]) continue;
        if (used_links.count(pair_key(u, v))) continue;
        if (!down_links_.empty() && down_links_.count(pair_key(u, v))) {
          continue;
        }
        if (v != src && v != dst && is_host_[static_cast<std::size_t>(v)] &&
            adjacency_[static_cast<std::size_t>(v)].size() < 2) {
          continue;
        }
        seen[static_cast<std::size_t>(v)] = true;
        prev[static_cast<std::size_t>(v)] = u;
        if (v == dst) {
          found = true;
          break;
        }
        q.push(v);
      }
    }
    if (!found) break;
    std::vector<NodeId> path{dst};
    for (NodeId u = dst; u != src; u = prev[static_cast<std::size_t>(u)])
      path.push_back(prev[static_cast<std::size_t>(u)]);
    std::reverse(path.begin(), path.end());
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      used_links.insert(pair_key(path[h], path[h + 1]));
      used_links.insert(pair_key(path[h + 1], path[h]));
    }
    paths.push_back(std::move(path));
  }
  auto [ins, _] = disjoint_cache_.emplace(key, std::move(paths));
  return ins->second;
}

void Topology::set_link_drop_rate(NodeId a, NodeId b, double rate) {
  Port* ab = node(a).port_to(b);
  Port* ba = node(b).port_to(a);
  assert(ab && ba);
  ab->link().drop_rate = rate;
  ba->link().drop_rate = rate;
}

void Topology::set_link_state(NodeId a, NodeId b, bool up) {
  Port* ab = node(a).port_to(b);
  Port* ba = node(b).port_to(a);
  assert(ab && ba && "set_link_state on a non-existent link");
  if (ab->link().up == up) return;
  ab->link().up = up;
  ba->link().up = up;
  if (up) {
    down_links_.erase(pair_key(a, b));
    down_links_.erase(pair_key(b, a));
  } else {
    down_links_.insert(pair_key(a, b));
    down_links_.insert(pair_key(b, a));
    // Queued packets die with the link; packets already serialized onto
    // the wire (their arrival events are in flight) are still delivered.
    for (Port* p : {ab, ba}) {
      const bool flushed = !p->queue_empty();
      while (!p->queue_empty()) {
        p->dequeue();  // destroying the PacketPtr recycles it
        ++p->wire_drops;
      }
      if (flushed && p->queue_series) {
        p->queue_series->record(sim_.now(),
                                static_cast<double>(p->queued_bytes()));
      }
    }
  }
  // Same invalidation as add_duplex_link: every derived path product is
  // stale. In-flight RouteRefs stay valid (immutable, refcounted); only
  // new lookups recompute.
  path_cache_.clear();
  route_cache_.clear();
  disjoint_cache_.clear();
  ++version_;
}

bool Topology::link_is_up(NodeId a, NodeId b) const {
  return down_links_.empty() || !down_links_.count(pair_key(a, b));
}

std::int64_t Topology::total_queue_drops() const {
  std::int64_t total = 0;
  for (const auto& n : nodes_)
    for (const auto& p : n->ports()) total += p->queue_drops();
  return total;
}

std::int64_t Topology::total_wire_drops() const {
  std::int64_t total = 0;
  for (const auto& n : nodes_)
    for (const auto& p : n->ports()) total += p->wire_drops;
  return total;
}

std::uint64_t Topology::total_events_coalesced() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_)
    for (const auto& p : n->ports()) total += p->events_coalesced;
  return total;
}

std::uint64_t Topology::total_flowlist_scan_ops() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_)
    for (const auto& p : n->ports())
      if (const auto* c = p->controller()) total += c->flow_scan_ops();
  return total;
}

}  // namespace pdq::net
