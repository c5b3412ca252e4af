// A deterministic discrete-event queue.
//
// Events are (time, virtual-insertion-time, sequence) keys in an implicit
// binary min-heap. Ties between events due at the same instant break on
// the *virtual insertion time* first, then on the monotonically
// increasing sequence number, so two runs with the same inputs always
// execute events in the same order. For plain schedule() calls the
// virtual time is the caller's clock at scheduling, which makes the
// ordering identical to pure insertion order; schedule_as_if() lets an
// event-coalescing caller (node.cc) stamp the instant at which the
// replaced event chain *would* have scheduled the event, preserving the
// chain's tie order while eliding its intermediate events. The key is a
// total order, so the pop sequence does not depend on the heap's shape.
//
// Heap entries are 32-byte (time, vtime, seq, slot) PODs — the callable
// itself lives in a slab of recycled slots, so sift operations never
// move callables and scheduling never allocates once the slab has grown
// to the simulation's concurrency high-water mark. The schedule calls
// take the caller's lambda and build it in its slot (InlineFunction::
// emplace), so a callable is moved once, when pop() hands it out.
//
// The heap is binary and pops bottom-up: the hole left by the root walks
// down to a leaf along the smaller child (one sibling compare per level,
// added to the index rather than branched on), and the old last entry
// sifts up from there; it almost always belongs near the bottom. Push
// moves a hole up instead of swapping. A 4-ary heap's min-of-four scan
// branches on data-dependent key compares and mispredicts: on the hold
// model (micro_core BM_EventQueueHold) the binary heap takes about a
// third to a half less time per pop+push at 300 and 2,000 pending
// events.
//
// Cancellation is O(1) and exact: an EventId encodes (slot, generation),
// so cancel() can tell a live event from one that already ran (the slot's
// generation has moved on) and destroy the callable immediately. The
// entry left in the heap is a tombstone skipped when it reaches the top.
// pending() counts exactly the events that will still run — cancelled
// tombstones are excluded, which run()/empty() rely on. Generations start
// at 1 and skip 0 on wrap, so no live event has id 0 and a
// default-initialized EventId{} never cancels anything.
//
// Ownership: the queue owns every scheduled EventFn until it is popped
// (moved out to the caller) or cancelled (destroyed on the spot). Units:
// event times are absolute integer nanoseconds (sim::Time).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace pdq::sim {

using EventId = std::uint64_t;

/// Captures up to this many bytes are stored inline (no heap allocation).
inline constexpr std::size_t kEventCaptureBytes = 48;
using EventFn = InlineFunction<kEventCaptureBytes>;

class EventQueue {
 public:
  /// Schedules `fn` (any void() callable, built in place) to run at
  /// absolute time `at`. Returns an id usable with cancel().
  template <typename F>
  EventId schedule(Time at, F&& fn) {
    return schedule_as_if(at, 0, std::forward<F>(fn));
  }

  /// Schedules `fn` at `at` with tie-break key `vtime` (<= at): among
  /// events due at the same instant, smaller vtime runs first, then
  /// insertion order. Callers pass their current clock (Simulator) or the
  /// instant an elided event chain would have scheduled this (node.cc).
  template <typename F>
  EventId schedule_as_if(Time at, Time vtime, F&& fn) {
    return schedule_with_seq(at, vtime, next_seq_++, std::forward<F>(fn));
  }

  /// Claims the next sequence number without scheduling anything. An
  /// event-coalescing caller reserves at the point where the elided chain
  /// event would have been scheduled, then passes the reservation to
  /// schedule_with_seq() so the replacement event inherits the chain
  /// event's exact tie-break position.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// schedule_as_if() with a previously reserved sequence number.
  template <typename F>
  EventId schedule_with_seq(Time at, Time vtime, std::uint64_t seq,
                            F&& fn) {
    assert(vtime <= at);
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    assert(s.state == SlotState::kFree);
    s.state = SlotState::kPending;
    s.fn.emplace(std::forward<F>(fn));
    heap_push(Entry{at, vtime, seq, slot});
    ++pending_;
    if (pending_ > peak_pending_) peak_pending_ = pending_;
    ++scheduled_total_;
    return make_id(s.gen, slot);
  }

  /// Cancels a pending event and destroys its callable immediately.
  /// Cancelling an id that already ran (or was already cancelled) is a
  /// harmless no-op: the id's generation no longer matches its slot.
  void cancel(EventId id) {
    const std::uint32_t slot = id_slot(id);
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (s.gen != id_gen(id) || s.state != SlotState::kPending) return;
    s.state = SlotState::kCancelled;
    s.fn.reset();
    --pending_;
    ++cancelled_total_;
  }

  bool empty() const { return pending_ == 0; }

  /// Exactly the number of events that will still run; cancelled entries
  /// buried in the heap are not counted.
  std::size_t pending() const { return pending_; }

  /// Lifetime counters (operation-count metrics for the benches).
  std::uint64_t scheduled_total() const { return scheduled_total_; }
  std::uint64_t cancelled_total() const { return cancelled_total_; }

  /// High-water mark of pending() since construction (or the last
  /// relax_peak_pending()) — the event-queue memory peak, in events.
  std::size_t peak_pending() const { return peak_pending_; }
  /// Resets the high-water mark to the current pending count so one
  /// run's peak can be measured on a reused queue.
  void relax_peak_pending() { peak_pending_ = pending_; }

  /// Time of the next runnable event, or kTimeInfinity when empty.
  Time next_time() {
    skip_cancelled();
    return heap_.empty() ? kTimeInfinity : heap_.front().at;
  }

  struct Popped {
    Time at;
    Time vtime;
    std::uint64_t seq;
    EventFn fn;
  };

  /// Pops and returns the next runnable event. Precondition: !empty().
  Popped pop() {
    skip_cancelled();
    assert(!heap_.empty());
    const Entry top = heap_.front();
    heap_remove_top();
    Slot& s = slots_[top.slot];
    assert(s.state == SlotState::kPending);
    Popped out{top.at, top.vtime, top.seq, std::move(s.fn)};
    release_slot(top.slot);
    --pending_;
    return out;
  }

 private:
  /// Heap entries are POD keys; the callable stays put in its slot.
  struct Entry {
    Time at;
    Time vtime;  // virtual insertion time (tie-break before seq)
    std::uint64_t seq;
    std::uint32_t slot;
  };

  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;  // never 0: see release_slot()
    SlotState state = SlotState::kFree;
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t id_gen(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  static bool before(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.vtime != b.vtime) return a.vtime < b.vtime;
    return a.seq < b.seq;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.state = SlotState::kFree;
    // Invalidates outstanding EventIds for this slot. Generation 0 is
    // skipped so that EventId{} never names a live event.
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(slot);
  }

  /// Drops cancelled tombstones off the top of the heap.
  void skip_cancelled() {
    while (!heap_.empty() &&
           slots_[heap_.front().slot].state == SlotState::kCancelled) {
      release_slot(heap_.front().slot);
      heap_remove_top();
    }
  }

  // ---- implicit binary min-heap over heap_ ----

  void heap_push(const Entry& e) {
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(e, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = e;
  }

  void heap_remove_top() {
    const std::size_t n = heap_.size() - 1;  // entries left after the pop
    const Entry last = heap_[n];
    heap_.pop_back();
    if (n == 0) return;
    // Walk the root's hole down to a leaf along the smaller child...
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      // Add the compare instead of branching on it: which sibling is
      // smaller is a coin flip the branch predictor cannot learn.
      child +=
          static_cast<std::size_t>(before(heap_[child + 1], heap_[child]));
      heap_[hole] = heap_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {  // a last node with a single child
      heap_[hole] = heap_[child];
      hole = child;
    }
    // ...then sift the old last entry up from there.
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(last, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = last;
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t scheduled_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
};

}  // namespace pdq::sim
