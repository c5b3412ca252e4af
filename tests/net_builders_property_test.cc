// Parameterized structural invariants for every topology builder.
#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "net/builders.h"
#include "sim/simulator.h"

namespace pdq::net {
namespace {

/// BFS connectivity over hosts+switches.
bool fully_connected(Topology& t) {
  if (t.num_nodes() == 0) return true;
  std::set<NodeId> seen{0};
  std::queue<NodeId> q;
  q.push(0);
  while (!q.empty()) {
    Node& n = t.node(q.front());
    q.pop();
    for (const auto& port : n.ports()) {
      const NodeId peer = port->link().to;
      if (seen.insert(peer).second) q.push(peer);
    }
  }
  return seen.size() == t.num_nodes();
}

class FatTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeSweep, StructureInvariants) {
  const int k = GetParam();
  sim::Simulator s;
  Topology t(s);
  auto servers = build_fat_tree(t, k);
  EXPECT_EQ(servers.size(), static_cast<std::size_t>(k * k * k / 4));
  EXPECT_EQ(t.switch_ids().size(),
            static_cast<std::size_t>(k * k + k * k / 4));
  // Every switch has exactly k ports.
  for (auto sw : t.switch_ids()) {
    EXPECT_EQ(t.node(sw).ports().size(), static_cast<std::size_t>(k));
  }
  EXPECT_TRUE(fully_connected(t));
  // Cross-pod server pairs have k^2/4 equal-cost paths (capped at 32).
  const auto& paths = t.shortest_paths(servers.front(), servers.back());
  EXPECT_EQ(paths.size(),
            std::min<std::size_t>(static_cast<std::size_t>(k * k / 4),
                                  Topology::kMaxEcmpPaths));
  for (const auto& p : paths) EXPECT_EQ(p.size(), 7u);
}

INSTANTIATE_TEST_SUITE_P(K, FatTreeSweep, ::testing::Values(4, 6, 8));

struct BCubeParam {
  int n;
  int k;
};

class BCubeSweep : public ::testing::TestWithParam<BCubeParam> {};

TEST_P(BCubeSweep, StructureInvariants) {
  const auto [n, k] = GetParam();
  sim::Simulator s;
  Topology t(s);
  auto servers = build_bcube(t, n, k);
  int expect_servers = 1;
  for (int i = 0; i <= k; ++i) expect_servers *= n;
  EXPECT_EQ(servers.size(), static_cast<std::size_t>(expect_servers));
  EXPECT_EQ(t.switch_ids().size(),
            static_cast<std::size_t>((k + 1) * expect_servers / n));
  // Every server has k+1 NICs; every switch has n ports.
  for (auto h : servers)
    EXPECT_EQ(t.node(h).ports().size(), static_cast<std::size_t>(k + 1));
  for (auto sw : t.switch_ids())
    EXPECT_EQ(t.node(sw).ports().size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(fully_connected(t));
  // Servers differing in one digit are 2 hops apart.
  EXPECT_EQ(t.ecmp_path(1, servers[0], servers[1]).size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(NK, BCubeSweep,
                         ::testing::Values(BCubeParam{2, 1}, BCubeParam{2, 3},
                                           BCubeParam{4, 1},
                                           BCubeParam{3, 2}));

TEST_P(BCubeSweep, DisjointPathCountMatchesNicCount) {
  const auto [n, k] = GetParam();
  sim::Simulator s;
  Topology t(s);
  auto servers = build_bcube(t, n, k);
  // Between max-distance servers there are k+1 link-disjoint paths.
  const auto& paths =
      t.disjoint_paths(servers.front(), servers.back(), k + 4);
  EXPECT_EQ(paths.size(), static_cast<std::size_t>(k + 1));
}

// net_ports is 64-bit so the struct has no padding: gtest names each
// ctest case after the parameter's raw bytes, and uninitialised padding
// would rename the cases on every run of the binary.
struct JellyParam {
  int switches;
  int ports;
  std::int64_t net_ports;
  std::uint64_t seed;
};

class JellyfishSweep : public ::testing::TestWithParam<JellyParam> {};

TEST_P(JellyfishSweep, StructureInvariants) {
  const auto p = GetParam();
  sim::Simulator s;
  Topology t(s);
  auto servers = build_jellyfish(t, p.switches, p.ports, p.net_ports, p.seed);
  EXPECT_EQ(servers.size(), static_cast<std::size_t>(
                                p.switches * (p.ports - p.net_ports)));
  for (auto sw : t.switch_ids()) {
    EXPECT_EQ(t.node(sw).ports().size(), static_cast<std::size_t>(p.ports));
  }
  EXPECT_TRUE(fully_connected(t));
}

INSTANTIATE_TEST_SUITE_P(Params, JellyfishSweep,
                         ::testing::Values(JellyParam{10, 6, 4, 1},
                                           JellyParam{20, 8, 4, 2},
                                           JellyParam{16, 12, 8, 3},
                                           JellyParam{24, 8, 6, 4}));

TEST(JellyfishDeterminism, SameSeedSameGraph) {
  sim::Simulator s1, s2;
  Topology t1(s1), t2(s2);
  build_jellyfish(t1, 12, 8, 4, 42);
  build_jellyfish(t2, 12, 8, 4, 42);
  ASSERT_EQ(t1.links().size(), t2.links().size());
  for (std::size_t i = 0; i < t1.links().size(); ++i) {
    EXPECT_EQ(t1.links()[i]->from, t2.links()[i]->from);
    EXPECT_EQ(t1.links()[i]->to, t2.links()[i]->to);
  }
}

class TreeSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TreeSweep, StructureInvariants) {
  const auto [tors, per] = GetParam();
  sim::Simulator s;
  Topology t(s);
  auto servers = build_single_rooted_tree(t, tors, per);
  EXPECT_EQ(servers.size(), static_cast<std::size_t>(tors * per));
  EXPECT_EQ(t.switch_ids().size(), static_cast<std::size_t>(tors + 1));
  EXPECT_TRUE(fully_connected(t));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TreeSweep,
                         ::testing::Values(std::make_pair(4, 3),
                                           std::make_pair(2, 8),
                                           std::make_pair(8, 4)));

struct SpineLeafParam {
  int spines;
  int tors;
  int servers_per_rack;
};

class SpineLeafSweep : public ::testing::TestWithParam<SpineLeafParam> {};

TEST_P(SpineLeafSweep, StructureInvariants) {
  const auto p = GetParam();
  sim::Simulator s;
  Topology t(s);
  auto servers = build_spine_leaf(t, p.spines, p.tors, p.servers_per_rack);
  EXPECT_EQ(servers.size(),
            static_cast<std::size_t>(p.tors * p.servers_per_rack));
  EXPECT_EQ(t.switch_ids().size(),
            static_cast<std::size_t>(p.spines + p.tors));
  EXPECT_TRUE(fully_connected(t));
  // Spines connect to every leaf and nothing else; leaves carry their
  // rack plus one uplink per spine. Spines were added first, so the
  // first `spines` switch ids are the spine layer.
  const auto& sw = t.switch_ids();
  for (int i = 0; i < p.spines; ++i) {
    EXPECT_EQ(t.node(sw[static_cast<std::size_t>(i)]).ports().size(),
              static_cast<std::size_t>(p.tors));
  }
  for (std::size_t i = static_cast<std::size_t>(p.spines); i < sw.size();
       ++i) {
    EXPECT_EQ(t.node(sw[i]).ports().size(),
              static_cast<std::size_t>(p.spines + p.servers_per_rack));
  }
}

TEST_P(SpineLeafSweep, EcmpAndPathLengths) {
  const auto p = GetParam();
  if (p.tors < 2) return;
  sim::Simulator s;
  Topology t(s);
  auto servers = build_spine_leaf(t, p.spines, p.tors, p.servers_per_rack);
  // Cross-rack: host-leaf-spine-leaf-host, one equal-cost path per spine.
  const auto& cross = t.shortest_paths(servers.front(), servers.back());
  EXPECT_EQ(cross.size(),
            std::min<std::size_t>(static_cast<std::size_t>(p.spines),
                                  Topology::kMaxEcmpPaths));
  for (const auto& path : cross) EXPECT_EQ(path.size(), 5u);
  // Same-rack: host-leaf-host, unique.
  if (p.servers_per_rack >= 2) {
    const auto& local = t.shortest_paths(servers[0], servers[1]);
    ASSERT_EQ(local.size(), 1u);
    EXPECT_EQ(local.front().size(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SpineLeafSweep,
                         ::testing::Values(SpineLeafParam{4, 4, 4},
                                           SpineLeafParam{2, 8, 4},
                                           SpineLeafParam{8, 2, 16},
                                           SpineLeafParam{1, 2, 3}));

TEST(SpineLeaf, UplinkRatesFollowOversubscription) {
  // Non-blocking (oversub 1): each of the `spines` uplinks carries
  // rack_rate / spines; oversub 2 halves that.
  sim::Simulator s;
  Topology t(s);
  build_spine_leaf(t, 4, 2, 8);  // rack injects 8 Gbps over 4 uplinks
  const auto& ids = t.switch_ids();
  const std::set<NodeId> switches(ids.begin(), ids.end());
  auto is_uplink = [&switches](const SimplexLink& l) {
    return switches.count(l.from) != 0 && switches.count(l.to) != 0;
  };
  double host_links = 0, uplinks = 0;
  for (const auto& l : t.links()) {
    if (is_uplink(*l)) {
      EXPECT_DOUBLE_EQ(l->rate_bps, 2e9);
      ++uplinks;
    } else {
      EXPECT_DOUBLE_EQ(l->rate_bps, 1e9);
      ++host_links;
    }
  }
  EXPECT_EQ(uplinks, 2 * 4 * 2);    // duplex halves x spines x tors
  EXPECT_EQ(host_links, 2 * 16);

  sim::Simulator s2;
  Topology t2(s2);
  build_spine_leaf(t2, 4, 2, 8, /*oversub=*/2.0);
  const auto& ids2 = t2.switch_ids();
  const std::set<NodeId> switches2(ids2.begin(), ids2.end());
  for (const auto& l : t2.links()) {
    if (switches2.count(l->from) != 0 && switches2.count(l->to) != 0) {
      EXPECT_DOUBLE_EQ(l->rate_bps, 1e9);
    }
  }
}

}  // namespace
}  // namespace pdq::net
