// A deterministic discrete-event queue.
//
// Events run in (time, virtual-insertion-time, sequence) order. Ties
// between events due at the same instant break on the *virtual insertion
// time* first, then on the monotonically increasing sequence number, so
// two runs with the same inputs always execute events in the same order.
// For plain schedule() calls the virtual time is the caller's clock at
// scheduling, which makes the ordering identical to pure insertion order;
// schedule_as_if() lets an event-coalescing caller (node.cc) stamp the
// instant at which the replaced event chain *would* have scheduled the
// event, preserving the chain's tie order while eliding its intermediate
// events. The key is a total order, so the pop sequence does not depend on
// how the queue stores its keys.
//
// The queue is a radix heap keyed on event time (Ahuja, Mehlhorn, Orlin,
// Tarjan, J. ACM 1990), which serves monotone keys — simulated time only
// moves forward — with O(1) pushes and no compare chain on pop. The
// *floor* is the instant being drained. Events due at the floor sit in a
// small binary heap on (vtime, seq); every later event is a 16-byte
// (time, slot) key in bucket b, where b is the highest bit in which its
// time differs from the floor, so every key in bucket b is earlier than
// every key in bucket b + 1. When the floor's events run out, the lowest
// non-empty bucket (one count-trailing-zeros on a 64-bit mask) is scanned
// for its earliest time, which becomes the floor; its keys move to the
// floor heap or strictly down into lower buckets, in place, and a key
// moves at most 63 times in its life. A bucket holding one key hands it
// over without the scan. vtime and seq live in the callable's slot and
// are read only when two events share an instant.
//
// Times must be non-negative (the clock starts at 0). A push below the
// floor is legal — next_time() settles the floor on the next event, which
// may lie past the caller's clock — and lowers the floor: with h the
// highest bit in which the old and new floors differ, the keys of the
// buckets below h and the old floor's events all merge into bucket h;
// higher buckets keep their keys. A running simulation never does this.
//
// The callables live in a slab of recycled slots, so redistribution never
// moves a callable and scheduling never allocates once the slab and the
// buckets have grown to the simulation's concurrency high-water mark. The
// schedule calls take the caller's lambda and build it in its slot
// (InlineFunction::emplace), so a callable is moved once, when pop() hands
// it out.
//
// Cancellation is O(1) and exact: an EventId encodes (slot, generation),
// so cancel() can tell a live event from one that already ran (the slot's
// generation has moved on) and destroy the callable immediately. The key
// left behind is a tombstone, freed when its bucket is redistributed or
// when it reaches the top of the floor heap. A timer that is cancelled
// and re-armed on every ACK buries tombstones far ahead of the floor, so
// once they outnumber the live events by more than 64, one sweep over the
// buckets frees them all (amortized O(1) per cancel). pending() counts
// exactly the events that will still run, which run()/empty() rely on.
// Generations start at 1 and skip 0 on wrap, so no live event has id 0
// and a default-initialized EventId{} never cancels anything.
//
// Ownership: the queue owns every scheduled EventFn until it is popped
// (moved out to the caller) or cancelled (destroyed on the spot). Units:
// event times are absolute integer nanoseconds (sim::Time).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
  /// absolute time `at` (>= 0). Returns an id usable with cancel().
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
    s.vtime = vtime;
    s.seq = seq;
    s.fn.emplace(std::forward<F>(fn));
    push_key(at, slot);
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
    if (++buried_ > pending_ + kSweepSlack) sweep();
  }

  bool empty() const { return pending_ == 0; }

  /// Exactly the number of events that will still run; cancelled keys
  /// not yet swept are not counted.
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
  Time next_time() { return settle() ? floor_ : kTimeInfinity; }

  struct Popped {
    Time at;
    Time vtime;
    std::uint64_t seq;
    EventFn fn;
  };

  /// Pops and returns the next runnable event. Precondition: !empty().
  Popped pop() {
    [[maybe_unused]] const bool live = settle();
    assert(live);
    const std::uint32_t slot = floor_pop();
    Slot& s = slots_[slot];
    Popped out{floor_, s.vtime, s.seq, std::move(s.fn)};
    release_slot(slot);
    --pending_;
    return out;
  }

 private:
  /// Bucket entries are POD keys; the callable and the tie keys stay put
  /// in the slot.
  struct Key {
    Time at;
    std::uint32_t slot;
  };

  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  struct Slot {
    Time vtime = 0;  // virtual insertion time (tie-break before seq)
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;  // never 0: see release_slot()
    SlotState state = SlotState::kFree;
    EventFn fn;
  };

  /// Times are non-negative, so bit 63 never differs from the floor's.
  static constexpr int kBuckets = 63;
  /// Tombstones tolerated beyond the live count before a sweep.
  static constexpr std::size_t kSweepSlack = 64;

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t id_gen(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint64_t bit(int b) { return std::uint64_t{1} << b; }

  /// Highest bit in which two distinct non-negative times differ.
  static int high_bit(Time a, Time b) {
    assert(a >= 0 && b >= 0 && a != b);
    return 63 - std::countl_zero(static_cast<std::uint64_t>(a ^ b));
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.state = SlotState::kFree;
    // Invalidates outstanding EventIds for this slot. Generation 0 is
    // skipped so that EventId{} never names a live event.
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(slot);
  }

  /// Frees `slot` if it holds a tombstone; true if its event is live.
  bool keep(std::uint32_t slot) {
    if (slots_[slot].state == SlotState::kPending) return true;
    release_slot(slot);
    --buried_;
    return false;
  }

  void push_key(Time at, std::uint32_t slot) {
    if (at < floor_) lower_floor(at);
    if (at == floor_) {
      floor_push(slot);
    } else {
      bucket_push(Key{at, slot});
    }
  }

  void bucket_push(const Key& k) {
    const int b = high_bit(k.at, floor_);
    buckets_[b].push_back(k);
    mask_ |= bit(b);
  }

  /// Moves the floor down to `at`. Keys in buckets above h = the highest
  /// bit in which the two floors differ still differ from `at` first at
  /// their own bit; every key below h, and every event due at the old
  /// floor, now differs from `at` first at bit h.
  void lower_floor(Time at) {
    const int h = high_bit(at, floor_);
    std::vector<Key>& dst = buckets_[h];
    const std::uint64_t below = mask_ & (bit(h) - 1);
    for (std::uint64_t m = below; m != 0; m &= m - 1) {
      std::vector<Key>& src = buckets_[std::countr_zero(m)];
      dst.insert(dst.end(), src.begin(), src.end());
      src.clear();
    }
    for (const std::uint32_t slot : floor_heap_) {
      dst.push_back(Key{floor_, slot});
    }
    floor_heap_.clear();
    mask_ &= ~below;
    if (!dst.empty()) mask_ |= bit(h);
    floor_ = at;
  }

  /// Brings the earliest live event to the top of the floor heap,
  /// freeing the tombstones passed on the way; false when none is left.
  bool settle() {
    for (;;) {
      while (!floor_heap_.empty()) {
        const std::uint32_t top = floor_heap_.front();
        if (slots_[top].state == SlotState::kPending) return true;
        floor_pop();
        keep(top);
      }
      if (mask_ == 0) return false;
      advance_floor();
    }
  }

  /// Makes the earliest time in the lowest non-empty bucket the floor.
  void advance_floor() {
    const int b = std::countr_zero(mask_);
    std::vector<Key>& src = buckets_[b];
    assert(!src.empty());
    mask_ &= ~bit(b);
    if (src.size() == 1) {
      floor_ = src.front().at;
      floor_heap_.push_back(src.front().slot);
      src.clear();
      return;
    }
    redistribute(src);
  }

  /// The floor becomes the earliest time in `src`, whose keys move to the
  /// floor heap (due at the new floor) or strictly down into lower
  /// buckets. Kept out of line so settle(), which runs twice per event,
  /// stays small where a queue of a few events spends its time.
  [[gnu::noinline]] void redistribute(std::vector<Key>& src) {
    Time lo = src.front().at;
    for (const Key& k : src) lo = std::min(lo, k.at);
    floor_ = lo;
    for (const Key& k : src) {
      if (!keep(k.slot)) continue;
      if (k.at == lo) {
        floor_push(k.slot);
      } else {
        bucket_push(k);
      }
    }
    src.clear();
  }

  /// Frees every tombstone in the buckets and the floor heap.
  void sweep() {
    for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
      const int b = std::countr_zero(m);
      std::vector<Key>& keys = buckets_[b];
      std::erase_if(keys, [this](const Key& k) { return !keep(k.slot); });
      if (keys.empty()) mask_ &= ~bit(b);
    }
    std::erase_if(floor_heap_,
                  [this](std::uint32_t slot) { return !keep(slot); });
    std::make_heap(floor_heap_.begin(), floor_heap_.end(), Later{this});
    assert(buried_ == 0);
  }

  // ---- binary min-heap on (vtime, seq) over the floor's events ----

  /// Heap order: true when `a` runs after `b` (the heap's top runs first).
  struct Later {
    const EventQueue* q;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      const Slot& x = q->slots_[a];
      const Slot& y = q->slots_[b];
      if (x.vtime != y.vtime) return x.vtime > y.vtime;
      return x.seq > y.seq;
    }
  };

  void floor_push(std::uint32_t slot) {
    floor_heap_.push_back(slot);
    if (floor_heap_.size() > 1)
      std::push_heap(floor_heap_.begin(), floor_heap_.end(), Later{this});
  }

  std::uint32_t floor_pop() {
    if (floor_heap_.size() > 1)
      std::pop_heap(floor_heap_.begin(), floor_heap_.end(), Later{this});
    const std::uint32_t slot = floor_heap_.back();
    floor_heap_.pop_back();
    return slot;
  }

  Time floor_ = 0;
  std::vector<std::uint32_t> floor_heap_;  // slots due at floor_
  std::array<std::vector<Key>, kBuckets> buckets_;
  std::uint64_t mask_ = 0;  // bit b set iff buckets_[b] is non-empty
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  std::size_t buried_ = 0;  // cancelled keys not yet freed
  std::size_t peak_pending_ = 0;
  std::uint64_t scheduled_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
};

}  // namespace pdq::sim
