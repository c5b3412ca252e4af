// The simulation executive: owns the clock and the event queue.
//
// Ownership: one Simulator per experiment; every other component holds a
// non-owning Simulator& and must not outlive it. Scheduled callbacks are
// built in their queue slot and destroyed after they run (or are
// cancelled).
// Units: all times are integer nanoseconds (sim::Time); `delay` is relative
// to now(), `at` is absolute simulation time.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace pdq::sim {

class Simulator {
 public:
  Time now() const { return now_; }

  /// Schedules `fn` at `delay` nanoseconds from now (delay >= 0).
  template <typename F>
  EventId schedule_in(Time delay, F&& fn) {
    assert(delay >= 0);
    return queue_.schedule_as_if(now_ + delay, now_, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `at` (>= now).
  template <typename F>
  EventId schedule_at(Time at, F&& fn) {
    assert(at >= now_);
    return queue_.schedule_as_if(at, now_, std::forward<F>(fn));
  }

  /// Schedules `fn` at `at`, ordered among same-instant events as if it
  /// had been scheduled at time `vtime` (<= at; may lie in the past).
  /// Used by event coalescing to preserve the tie order of the event
  /// chain it elides (see event_queue.h).
  template <typename F>
  EventId schedule_at_as_if(Time at, Time vtime, F&& fn) {
    assert(at >= now_);
    return queue_.schedule_as_if(at, vtime, std::forward<F>(fn));
  }

  /// Claims the next event sequence number (see EventQueue::reserve_seq).
  std::uint64_t reserve_event_order() { return queue_.reserve_seq(); }

  /// Tie-break key of the event currently executing — lets coalescing
  /// callers decide whether an elided chain event with a reserved key
  /// would already have run at this instant.
  Time current_event_vtime() const { return cur_vtime_; }
  std::uint64_t current_event_seq() const { return cur_seq_; }

  /// schedule_at_as_if() with a reserved sequence number: the event takes
  /// the exact tie-break position of the chain event reserved for.
  template <typename F>
  EventId schedule_at_reserved(Time at, Time vtime, std::uint64_t seq,
                               F&& fn) {
    assert(at >= now_);
    return queue_.schedule_with_seq(at, vtime, seq, std::forward<F>(fn));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the queue drains, the clock passes `until`, or stop()
  /// is called. Returns the number of events executed.
  std::uint64_t run(Time until = kTimeInfinity) {
    std::uint64_t executed = 0;
    while (!stopped_ && !queue_.empty()) {
      if (queue_.next_time() > until) break;
      auto ev = queue_.pop();
      assert(ev.at >= now_);
      now_ = ev.at;
      cur_vtime_ = ev.vtime;
      cur_seq_ = ev.seq;
      ev.fn();
      ++executed;
    }
    // A stop() mid-run freezes the clock where the run actually ended;
    // only a queue drain or horizon cap advances it to `until`.
    if (!stopped_ && until != kTimeInfinity && now_ < until) now_ = until;
    stopped_ = false;
    events_executed_ += executed;
    return executed;
  }

  /// Stops the current run() after the in-flight event returns.
  void stop() { stopped_ = true; }

  bool idle() const { return queue_.empty(); }
  /// Exactly the number of events still scheduled to run (cancelled
  /// entries excluded).
  std::size_t pending_events() const { return queue_.pending(); }

  // Lifetime operation counters — the perf currency of the benches on
  // single-core CI (no wall-time assertions anywhere).
  std::uint64_t events_executed() const { return events_executed_; }
  std::uint64_t events_scheduled() const { return queue_.scheduled_total(); }
  std::uint64_t events_cancelled() const { return queue_.cancelled_total(); }
  /// High-water mark of pending_events() (see EventQueue::peak_pending).
  std::size_t peak_pending_events() const { return queue_.peak_pending(); }
  void relax_peak_pending() { queue_.relax_peak_pending(); }

 private:
  EventQueue queue_;
  Time now_ = 0;
  Time cur_vtime_ = 0;
  std::uint64_t cur_seq_ = 0;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
};

}  // namespace pdq::sim
