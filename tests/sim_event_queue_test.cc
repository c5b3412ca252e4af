#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace pdq::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int ran = 0;
  q.schedule(1, [&] { ++ran; });
  const EventId id = q.schedule(2, [&] { ran += 100; });
  q.schedule(3, [&] { ++ran; });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, CancelAlreadyRunIsNoop) {
  EventQueue q;
  int ran = 0;
  const EventId id = q.schedule(1, [&] { ++ran; });
  q.pop().fn();
  q.cancel(id);  // must not blow up or affect future events
  q.schedule(2, [&] { ++ran; });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, CancelAllLeavesQueueEmpty) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(q.schedule(i, [] {}));
  for (EventId id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, DefaultEventIdNamesNoEvent) {
  // The first event on a fresh queue takes slot 0; its generation starts
  // at 1, so a default-initialized EventId{} (slot 0, generation 0) must
  // not cancel it.
  EventQueue q;
  int ran = 0;
  const EventId first = q.schedule(1, [&] { ++ran; });
  EXPECT_NE(first, EventId{});
  q.cancel(EventId{});
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.cancelled_total(), 0u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.schedule(5, [] {});
  q.schedule(9, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  Time last = -1;
  // Pseudo-random times, deterministic check that pops are monotone.
  std::uint64_t x = 12345;
  for (int i = 0; i < 10'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(static_cast<Time>(x % 1'000'000), [] {});
  }
  while (!q.empty()) {
    const Time t = q.next_time();
    EXPECT_GE(t, last);
    last = t;
    q.pop().fn();
  }
}

}  // namespace
}  // namespace pdq::sim
