#include "harness/audit.h"

#include <cinttypes>
#include <cstdio>

#include "net/node.h"
#include "net/topology.h"

namespace pdq::harness {

std::string AuditReport::to_string() const {
  if (violations.empty()) return "audit: ok\n";
  std::string out = "audit: " + std::to_string(violations.size()) +
                    " invariant violation(s)\n";
  for (const auto& v : violations) {
    out += "[" + v.kind + "] " + v.detail;
    if (out.empty() || out.back() != '\n') out += '\n';
  }
  return out;
}

void scan_ghost_grants(net::Topology& topo, sim::Time now, sim::Time grace,
                       AuditReport& report) {
  // Ground truth for flow ownership: the hosts' attach tables (covers
  // M-PDQ subflow ids and hybrid tail ids, which the harness slot table
  // does not describe).
  std::unordered_set<net::FlowId> owned;
  for (net::NodeId h : topo.host_ids()) {
    topo.host(h).attached_senders().for_each(
        [&owned](net::FlowId id, net::Agent*) { owned.insert(id); });
  }
  std::vector<net::GrantInfo> grants;
  for (net::NodeId id = 0; id < static_cast<net::NodeId>(topo.num_nodes());
       ++id) {
    for (const auto& port : topo.node(id).ports()) {
      const net::LinkController* c = port->controller();
      if (c == nullptr) continue;
      grants.clear();
      c->granted_flows(grants);
      std::string bad;
      for (const auto& g : grants) {
        if (owned.count(g.flow) != 0) continue;
        if (g.last_seen != sim::kTimeInfinity && now - g.last_seen <= grace)
          continue;  // ordinary post-TERM staleness; GC will collect it
        char buf[128];
        std::snprintf(buf, sizeof(buf), " flow=%" PRId64
                      " rate=%.3gMbps age=%.1fms",
                      static_cast<std::int64_t>(g.flow), g.rate_bps / 1e6,
                      g.last_seen == sim::kTimeInfinity
                          ? -1.0
                          : sim::to_millis(now - g.last_seen));
        bad += buf;
      }
      if (bad.empty()) continue;
      char head[96];
      std::snprintf(head, sizeof(head),
                    "link %d->%d grants flows no live sender owns:",
                    port->link().from, port->link().to);
      report.violations.push_back({"ghost_grant", head + bad});
    }
  }
}

std::string describe_controllers(net::Topology& topo, std::size_t max_lines) {
  std::string out;
  std::size_t lines = 0;
  std::vector<net::GrantInfo> grants;
  for (net::NodeId id = 0; id < static_cast<net::NodeId>(topo.num_nodes());
       ++id) {
    for (const auto& port : topo.node(id).ports()) {
      const net::LinkController* c = port->controller();
      if (c == nullptr) continue;
      grants.clear();
      c->granted_flows(grants);
      if (grants.empty() && port->queued_bytes() == 0) continue;
      if (++lines > max_lines) {
        out += "  ... (more links elided)\n";
        return out;
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "  link %d->%d: %zu grants, %" PRId64 " queued bytes",
                    port->link().from, port->link().to, grants.size(),
                    port->queued_bytes());
      out += buf;
      for (std::size_t g = 0; g < grants.size() && g < 4; ++g) {
        std::snprintf(buf, sizeof(buf), " [flow=%" PRId64 " %.3gMbps]",
                      static_cast<std::int64_t>(grants[g].flow),
                      grants[g].rate_bps / 1e6);
        out += buf;
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace pdq::harness
