// IdMap (net/id_map.h): a randomized differential against
// std::unordered_map over keys chosen to collide and to wrap probe runs
// past the end of the table, plus the Host attach/deliver/detach path
// built on it.
#include "net/id_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/node.h"
#include "net/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace pdq::net {
namespace {

using Map = IdMap<FlowId, std::int64_t>;
using RefMap = std::unordered_map<FlowId, std::int64_t>;

/// Checks every key of `ref` plus the probe keys against `map`.
void expect_same(const Map& map, const RefMap& ref,
                 const std::vector<FlowId>& probes) {
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const std::int64_t* got = map.find(k);
    ASSERT_NE(got, nullptr) << "key " << k;
    EXPECT_EQ(*got, v) << "key " << k;
  }
  for (FlowId k : probes) {
    EXPECT_EQ(map.find(k) != nullptr, ref.count(k) != 0) << "key " << k;
  }
  std::size_t seen = 0;
  map.for_each([&](FlowId k, std::int64_t v) {
    ++seen;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "key " << k;
    EXPECT_EQ(it->second, v);
  });
  EXPECT_EQ(seen, ref.size());
}

/// Keys whose home slot, in a table of `capacity` slots, is one of the
/// last two: their probe runs wrap past the end of the table.
std::vector<FlowId> wrapping_keys(std::size_t capacity, std::size_t n) {
  Map m;
  // Grow the table to `capacity` slots to read its hash.
  for (FlowId k = 0; m.capacity() < capacity; ++k) m[k] = 0;
  std::vector<FlowId> keys;
  for (FlowId k = 1'000'000; keys.size() < n; ++k) {
    if (m.bucket(k) + 2 >= capacity) keys.push_back(k);
  }
  return keys;
}

TEST(IdMap, EmptyFindsNothing) {
  Map m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(kInvalidFlow), nullptr);
  EXPECT_FALSE(m.erase(3));
}

TEST(IdMap, InvalidIdIsNeverFound) {
  // -1 marks an empty slot; looking it up must not match one.
  Map m;
  m[5] = 50;
  EXPECT_EQ(m.find(kInvalidFlow), nullptr);
  EXPECT_FALSE(m.erase(kInvalidFlow));
  EXPECT_EQ(m.size(), 1u);
}

TEST(IdMap, CollidingWrappingKeysSurviveErase) {
  // Six keys all homed in the last two slots of a 16-slot table: the
  // run wraps to the front, and erasing from its middle must shift the
  // tail back so every survivor stays reachable.
  const std::vector<FlowId> keys = wrapping_keys(16, 6);
  Map m;
  for (FlowId k = 0; m.capacity() < 16; ++k) m[k] = k;
  for (FlowId k = 0; k < 5; ++k) ASSERT_TRUE(m.erase(k));
  ASSERT_EQ(m.size(), 0u);
  ASSERT_EQ(m.capacity(), 16u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    m[keys[i]] = static_cast<std::int64_t>(i);
  }
  ASSERT_EQ(m.capacity(), 16u);  // no growth: the collisions are real
  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    Map copy = m;
    ASSERT_TRUE(copy.erase(keys[victim]));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::int64_t* v = copy.find(keys[i]);
      if (i == victim) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr) << "lost key " << keys[i] << " erasing "
                              << keys[victim];
        EXPECT_EQ(*v, static_cast<std::int64_t>(i));
      }
    }
  }
}

TEST(IdMap, RandomizedDifferentialAgainstUnorderedMap) {
  // 200k set/overwrite/erase/find/clear operations. Keys come from three
  // pools: a small dense range (sequential FlowIds), keys homed at the
  // end of a 64-slot table (collisions that wrap) and sparse large ids.
  // Phases of insert-heavy and erase-heavy mixes grow and shrink the
  // map, so growth and backward-shift erase both run at many sizes.
  std::vector<FlowId> pool;
  for (FlowId k = 0; k < 96; ++k) pool.push_back(k);
  for (FlowId k : wrapping_keys(64, 48)) pool.push_back(k);
  sim::Rng rng(20260417);
  for (int i = 0; i < 48; ++i) {
    pool.push_back(static_cast<FlowId>(rng.uniform_int(0, 1LL << 40)));
  }
  pool.push_back(0x7FFF'FFFF'FFFF'FFFFLL);  // largest id

  Map map;
  RefMap ref;
  const std::vector<FlowId> probes(pool.begin(), pool.begin() + 40);
  for (int op = 0; op < 200'000; ++op) {
    const bool insert_phase = (op / 5000) % 2 == 0;
    const FlowId k = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const std::int64_t roll = rng.uniform_int(0, 999);
    if (roll == 0) {
      map.clear();
      ref.clear();
    } else if (roll < (insert_phase ? 600 : 250)) {
      const std::int64_t v = op;
      map[k] = v;  // set, or overwrite when present
      ref[k] = v;
    } else if (roll < 850) {
      EXPECT_EQ(map.erase(k), ref.erase(k) != 0) << "op " << op;
    } else {
      const std::int64_t* got = map.find(k);
      const auto it = ref.find(k);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
      if (got != nullptr) EXPECT_EQ(*got, it->second) << "op " << op;
    }
    ASSERT_EQ(map.size(), ref.size()) << "op " << op;
    if (op % 997 == 0) expect_same(map, ref, probes);
  }
  expect_same(map, ref, probes);
}

/// Counts packets handed to it.
class CountingAgent : public Agent {
 public:
  void on_packet(const PacketPtr&) override { ++packets; }
  int packets = 0;
};

TEST(IdMap, HostDropsPacketsForDetachedFlowSilently) {
  sim::Simulator simulator;
  Topology t(simulator);
  const NodeId a = t.add_host();
  const NodeId b = t.add_host();
  t.add_duplex_link(a, b, LinkDefaults{});
  const auto send = [&](FlowId flow) {
    PacketPtr p = make_packet();
    p->flow = flow;
    p->type = PacketType::kData;
    p->src = a;
    p->dst = b;
    p->set_route({a, b});
    t.host(a).send(std::move(p));
    simulator.run();
  };

  CountingAgent agent;
  CountingAgent other;
  t.host(b).attach_receiver(7, &agent);
  t.host(b).attach_receiver(8, &other);
  send(7);
  EXPECT_EQ(agent.packets, 1);
  t.host(b).detach_receiver(7);
  send(7);  // no receiver for flow 7 any more: dropped
  EXPECT_EQ(agent.packets, 1);
  send(8);  // the other flow still reaches its agent
  EXPECT_EQ(other.packets, 1);
  send(kInvalidFlow);  // an unset flow id matches no agent
  EXPECT_EQ(agent.packets + other.packets, 2);
}

}  // namespace
}  // namespace pdq::net
