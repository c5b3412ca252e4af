// Property/stress tests for the event queue: randomized
// schedule/as-if/reserve/cancel/pop interleavings cross-checked against
// a naive linear-scan model, the tie-order contract event coalescing and
// the PDQ dormant tick rely on, plus the determinism and
// pending()-exactness guarantees the engine is pinned to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

namespace pdq::sim {
namespace {

/// The obviously correct reference: an unsorted vector of
/// (time, vtime, seq) records, erased on cancellation and searched for
/// the minimal key on every query.
class NaiveQueue {
 public:
  /// Claims the next sequence number without scheduling anything.
  std::uint64_t reserve() { return next_seq_++; }

  std::uint64_t schedule(Time at, Time vtime) {
    const std::uint64_t seq = reserve();
    schedule_with_seq(at, vtime, seq);
    return seq;
  }

  void schedule_with_seq(Time at, Time vtime, std::uint64_t seq) {
    entries_.push_back({at, vtime, seq});
  }

  /// Drops the entry; a seq that already ran or was cancelled is absent.
  void cancel(std::uint64_t seq) {
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [seq](const Entry& e) { return e.seq == seq; });
    if (it != entries_.end()) entries_.erase(it);
  }

  std::size_t pending() const { return entries_.size(); }

  Time next_time() const {
    const std::size_t best = min_live();
    return best == entries_.size() ? kTimeInfinity : entries_[best].at;
  }

  /// Pops the (time, vtime, seq)-minimal entry; returns its seq.
  std::uint64_t pop() {
    const std::size_t best = min_live();
    const std::uint64_t seq = entries_[best].seq;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(best));
    return seq;
  }

 private:
  struct Entry {
    Time at;
    Time vtime;
    std::uint64_t seq;
  };

  /// Index of the minimal entry, or entries_.size() when none.
  std::size_t min_live() const {
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (best == entries_.size() ||
          std::tie(e.at, e.vtime, e.seq) <
              std::tie(entries_[best].at, entries_[best].vtime,
                       entries_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueueProperty, RandomInterleavingsMatchNaiveModel) {
  for (std::uint64_t seed : {7u, 42u, 1234u}) {
    Rng rng(seed);
    EventQueue q;
    NaiveQueue model;
    // Scheduled events by model seq, parallel to their real ids. Each
    // event appends its model seq to `ran` when it runs, so the popped
    // order can be compared with the model's.
    std::vector<std::uint64_t> seqs;
    std::vector<EventId> real_ids;
    std::vector<std::uint64_t> reserved;  // claimed, not yet scheduled
    std::vector<std::uint64_t> ran;
    std::vector<std::uint64_t> model_ran;

    // Times and vtimes sit on a coarse grid so that ties on `at`, and on
    // (at, vtime), are common and the seq tie-break gets exercised.
    const auto draw_at = [&rng] { return 10 * rng.uniform_int(0, 99); };
    const auto draw_vtime = [&rng](Time at) {
      return 10 * rng.uniform_int(0, at / 10);
    };
    const auto schedule_reserved = [&](std::size_t k) {
      const std::uint64_t mseq = reserved[k];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
      const Time at = draw_at();
      const Time vtime = draw_vtime(at);
      model.schedule_with_seq(at, vtime, mseq);
      seqs.push_back(mseq);
      real_ids.push_back(q.schedule_with_seq(
          at, vtime, mseq, [mseq, &ran] { ran.push_back(mseq); }));
    };

    for (int step = 0; step < 4000; ++step) {
      const auto op = rng.uniform_int(0, 11);
      if (op <= 2 || q.empty()) {  // schedule (biased: queues must grow)
        const Time at = draw_at();
        const std::uint64_t mseq = model.schedule(at, 0);
        seqs.push_back(mseq);
        real_ids.push_back(
            q.schedule(at, [mseq, &ran] { ran.push_back(mseq); }));
      } else if (op <= 4) {  // schedule as if from an earlier instant
        const Time at = draw_at();
        const Time vtime = draw_vtime(at);
        const std::uint64_t mseq = model.schedule(at, vtime);
        seqs.push_back(mseq);
        real_ids.push_back(q.schedule_as_if(
            at, vtime, [mseq, &ran] { ran.push_back(mseq); }));
      } else if (op == 5) {  // reserve a seq for a later schedule
        const std::uint64_t mseq = model.reserve();
        ASSERT_EQ(q.reserve_seq(), mseq);
        reserved.push_back(mseq);
      } else if (op == 6) {  // schedule with an earlier reservation
        if (reserved.empty()) continue;
        schedule_reserved(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(reserved.size()) - 1)));
      } else if (op <= 8) {  // cancel a random id (live, run, or stale)
        const auto victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(seqs.size()) - 1));
        q.cancel(real_ids[victim]);
        model.cancel(seqs[victim]);
      } else {  // pop
        model_ran.push_back(model.pop());
        auto ev = q.pop();
        ev.fn();
      }
      ASSERT_EQ(q.pending(), model.pending()) << "step " << step;
      ASSERT_EQ(q.empty(), model.pending() == 0);
      ASSERT_EQ(q.next_time(), model.next_time()) << "step " << step;
    }
    // Spend the outstanding reservations, then drain: the two must pop
    // the identical sequence.
    while (!reserved.empty()) schedule_reserved(0);
    while (!q.empty()) {
      model_ran.push_back(model.pop());
      auto ev = q.pop();
      ev.fn();
    }
    EXPECT_EQ(ran, model_ran);
    EXPECT_EQ(model.pending(), 0u);
  }
}

TEST(EventQueueProperty, MonotoneClockMatchesNaiveModel) {
  // The simulator's own usage: every schedule lands at or after the clock
  // (the time of the last popped event). Delays span 0 to 2^40 ns so keys
  // cross many bucket boundaries of a time-keyed queue; the running event
  // schedules at its own instant, also with reservations older than its
  // own seq; timers are cancelled and re-armed ~1 ms ahead and whole
  // swaths of events are cancelled at once, burying more tombstones than
  // live events; and next_time() may settle on a later event just before
  // a schedule lands between the clock and that event.
  for (std::uint64_t seed : {3u, 77u, 31337u}) {
    Rng rng(seed);
    EventQueue q;
    NaiveQueue model;
    // Indexed by model seq: the real id, and whether the event is still
    // scheduled (neither run nor cancelled).
    std::vector<EventId> id_of;
    std::vector<char> live;
    struct Reservation {
      std::uint64_t seq;
      Time vtime;  // the clock when the seq was claimed
    };
    std::vector<Reservation> reserved;
    std::vector<std::uint64_t> timers(16, ~std::uint64_t{0});
    Time now = 0;
    std::uint64_t now_seq = 0;  // seq of the event that ran last

    const auto draw_delay = [&rng]() -> Time {
      switch (rng.uniform_int(0, 3)) {
        case 0:
          return 0;
        case 1:
          return rng.uniform_int(1, Time{1} << 10);
        case 2:
          return rng.uniform_int(Time{1} << 14, Time{1} << 17);
        default:
          return rng.uniform_int(Time{1} << 20, Time{1} << 40);
      }
    };
    const auto track = [&](std::uint64_t mseq, EventId id) {
      if (id_of.size() <= mseq) {
        id_of.resize(mseq + 1, EventId{});
        live.resize(mseq + 1, 0);
      }
      id_of[mseq] = id;
      live[mseq] = 1;
    };
    const auto schedule = [&](Time at) {
      const std::uint64_t mseq = model.schedule(at, now);
      track(mseq, q.schedule_as_if(at, now, [mseq, &live] { live[mseq] = 0; }));
      return mseq;
    };
    const auto schedule_reserved = [&](std::size_t k, Time at) {
      const Reservation r = reserved[k];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
      model.schedule_with_seq(at, r.vtime, r.seq);
      track(r.seq, q.schedule_with_seq(at, r.vtime, r.seq,
                                       [s = r.seq, &live] { live[s] = 0; }));
    };
    const auto cancel = [&](std::uint64_t mseq) {
      if (mseq >= id_of.size()) return;
      q.cancel(id_of[mseq]);
      model.cancel(mseq);
      live[mseq] = 0;
    };

    for (int step = 0; step < 20000; ++step) {
      // Alternate growing and draining phases so pending() sweeps from
      // empty to several hundred events and back.
      const bool grow = (step / 2500) % 2 == 0;
      const auto op = rng.uniform_int(0, 19);
      if (q.empty() || op < (grow ? 7 : 2)) {
        schedule(now + draw_delay());
      } else if (op < 7 || op >= 17) {
        const std::uint64_t mseq = model.pop();
        const auto ev = q.pop();
        ASSERT_EQ(ev.seq, mseq) << "step " << step;
        ASSERT_GE(ev.at, now);
        now = ev.at;
        now_seq = ev.seq;
      } else if (op == 7) {  // same instant, vtime = now
        schedule(now);
      } else if (op == 8) {
        const std::uint64_t mseq = model.reserve();
        ASSERT_EQ(q.reserve_seq(), mseq);
        reserved.push_back({mseq, now});
      } else if (op == 9) {  // same instant, a seq older than the runner's
        if (reserved.empty()) continue;
        std::size_t k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(reserved.size()) - 1));
        for (std::size_t i = 0; i < reserved.size(); ++i) {
          if (reserved[i].seq < now_seq) k = i;
        }
        schedule_reserved(k, now);
      } else if (op == 10) {  // a reservation spent at a later time
        if (reserved.empty()) continue;
        schedule_reserved(static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(reserved.size()) -
                                     1)),
                          now + draw_delay());
      } else if (op <= 12) {  // cancel and re-arm a retransmission timer
        std::uint64_t& t = timers[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(timers.size()) - 1))];
        cancel(t);
        t = schedule(now + kMillisecond + rng.uniform_int(0, 1000));
      } else if (op == 13) {  // cancel a random seq: live, run or stale
        const auto hi = static_cast<std::int64_t>(model.reserve()) - 1;
        ASSERT_EQ(static_cast<std::int64_t>(q.reserve_seq()), hi + 1);
        cancel(static_cast<std::uint64_t>(rng.uniform_int(0, hi)));
      } else if (op == 14) {  // burst: cancel ~3/4 of the live events
        if (rng.uniform_int(0, 9) != 0) continue;
        for (std::uint64_t mseq = 0; mseq < live.size(); ++mseq) {
          if (live[mseq] && rng.uniform_int(0, 3) != 0) cancel(mseq);
        }
      } else if (op == 15) {  // settle on the next event, schedule below it
        const Time next = q.next_time();
        ASSERT_EQ(next, model.next_time()) << "step " << step;
        if (next == kTimeInfinity || next == now) continue;
        schedule(rng.uniform_int(now, next - 1));
      } else {  // look without popping
        ASSERT_EQ(q.next_time(), model.next_time()) << "step " << step;
      }
      ASSERT_EQ(q.pending(), model.pending()) << "step " << step;
      ASSERT_EQ(q.empty(), model.pending() == 0);
    }
    // Spend the outstanding reservations, then drain: the two must pop
    // the identical sequence.
    while (!reserved.empty()) schedule_reserved(0, now + draw_delay());
    while (!q.empty()) {
      ASSERT_EQ(q.next_time(), model.next_time());
      ASSERT_EQ(q.pop().seq, model.pop());
    }
    EXPECT_EQ(model.pending(), 0u);
    EXPECT_EQ(q.next_time(), kTimeInfinity);
  }
}

TEST(EventQueueProperty, DormantWakeGridReentryKeepsTieOrder) {
  // The PDQ rate-controller shape (core/pdq_switch.cc): a grid tick goes
  // dormant by reserving the seq its successor would have taken; other
  // events are then scheduled for the next grid instant; a later wake
  // re-enters the tick at that instant with the reserved seq and a vtime
  // backdated to the previous grid point. The re-entered tick must run
  // first: ahead of a same-vtime competitor holding a later seq, and of
  // a competitor scheduled fresh at the firing instant.
  EventQueue q;
  std::vector<int> log;
  const Time grid = 500 * kMicrosecond;
  for (int period = 1; period <= 20; ++period) {
    const Time prev = grid * (period - 1);
    const Time at = grid * period;
    const std::uint64_t tick_seq = q.reserve_seq();
    q.schedule_as_if(at, prev,
                     [&log, period] { log.push_back(period * 10 + 1); });
    q.schedule_as_if(at, at,
                     [&log, period] { log.push_back(period * 10 + 2); });
    q.schedule_with_seq(at, prev, tick_seq,
                        [&log, period] { log.push_back(period * 10); });
    while (!q.empty()) q.pop().fn();
    ASSERT_EQ(log.size(), static_cast<std::size_t>(3 * period));
    EXPECT_EQ(log[log.size() - 3], period * 10);
    EXPECT_EQ(log[log.size() - 2], period * 10 + 1);
    EXPECT_EQ(log[log.size() - 1], period * 10 + 2);
  }
}

TEST(EventQueueProperty, TieBreakIsScheduleOrderAcrossCancellations) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(5, [i, &order] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 3) q.cancel(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().fn();
  std::vector<int> expect;
  for (int i = 0; i < 100; ++i)
    if (i % 3 != 0) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(EventQueueProperty, PendingIsExactUnderBuriedCancellations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(q.schedule(i, [] {}));
  // Cancel every other event deep in the heap; none has been popped, so
  // the exact count must drop immediately (the old size() kept counting
  // the tombstones).
  for (int i = 0; i < 50; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.pending(), 25u);
  int ran = 0;
  while (!q.empty()) {
    q.pop().fn();
    ++ran;
  }
  EXPECT_EQ(ran, 25);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueProperty, CancelSameIdTwiceCountsOnce) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.cancel(a);  // stale: must not double-decrement
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueProperty, StaleCancelAfterRunNeverKillsSlotReuser) {
  EventQueue q;
  // Run an event, keep its id, then schedule many more (recycling its
  // slot): the stale cancel must not touch the new occupant.
  const EventId old_id = q.schedule(1, [] {});
  q.pop().fn();
  int ran = 0;
  for (int i = 0; i < 20; ++i) q.schedule(2 + i, [&ran] { ++ran; });
  q.cancel(old_id);
  EXPECT_EQ(q.pending(), 20u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(ran, 20);
}

TEST(EventQueueProperty, CancelDestroysCallableImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventId id = q.schedule(1, [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  q.cancel(id);
  // The capture must be released at cancel time, not when the tombstone
  // surfaces — flows would otherwise pin packets for their whole RTO.
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueProperty, OperationCountersAccumulate) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.schedule(3, [] {});
  q.cancel(a);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(q.scheduled_total(), 3u);
  EXPECT_EQ(q.cancelled_total(), 1u);
}

TEST(EventQueueProperty, SlabReusesSlotsInsteadOfGrowing) {
  EventQueue q;
  // Steady-state schedule/pop churn must cycle through a tiny slab.
  for (int round = 0; round < 1000; ++round) {
    q.schedule(round, [] {});
    q.pop().fn();
  }
  EXPECT_EQ(q.pending(), 0u);
  // Interleaved burst: high-water mark is 8 concurrent events.
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.schedule(10'000 + i, [] {}));
  for (EventId id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace pdq::sim
