// PacketPool: a free-list allocator that recycles Packet objects.
//
// Every simulation is single-threaded, so the default pool is
// thread-local (PacketPool::local()) — SweepRunner workers each get their
// own and never contend. acquire() pops a recycled packet (or allocates
// when the free list is dry); dropping the last PacketPtr reference
// resets the packet and pushes it back. The pool owns every packet it
// ever allocated and frees them all in its destructor, so teardown is
// leak-free (ASan-verified) even for packets parked in the free list.
//
// Invariant: a pool must outlive the packets it handed out. The
// thread-local pool trivially satisfies this; tests that construct a
// local PacketPool must drop their PacketPtrs before the pool dies
// (asserted in debug builds).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "net/packet.h"

namespace pdq::net {

class PacketPool {
 public:
  PacketPool() = default;
  ~PacketPool() {
    assert(live_count() == 0 && "packets outliving their pool");
  }
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// The calling thread's pool (what make_packet() uses). By default a
  /// per-thread static pool; ScopedPool swaps in a caller-owned one.
  static PacketPool& local();

  /// Installs `pool` as the calling thread's PacketPool::local() for the
  /// current scope — e.g. to measure one run's allocations from a cold
  /// pool, deterministically, regardless of what ran on this thread
  /// before. Destroy only after every packet drawn from the scope is
  /// released (destruction order: simulator first, ScopedPool last).
  class ScopedPool {
   public:
    explicit ScopedPool(PacketPool& pool);
    ~ScopedPool();
    ScopedPool(const ScopedPool&) = delete;
    ScopedPool& operator=(const ScopedPool&) = delete;

   private:
    PacketPool* previous_;
  };

  /// A fresh, fully reset packet with one reference.
  PacketPtr acquire() {
    ++acquires_;
    Packet* p;
    if (!free_.empty()) {
      p = free_.back();
      free_.pop_back();
    } else {
      owned_.push_back(std::make_unique<Packet>());
      ++allocated_total_;
      p = owned_.back().get();
      p->hook_.origin = this;
    }
    p->hook_.refs = 1;
    const std::size_t live = owned_.size() - free_.size();
    if (live > live_highwater_) live_highwater_ = live;
    return PacketPtr(p);
  }

  /// Called by PacketPtr when the last reference drops.
  void recycle(Packet* p) {
    assert(p->hook_.origin == this && p->hook_.refs == 0);
    p->reset();  // drop route/header state now, not at next acquire
    free_.push_back(p);
  }

  // ---- growth accounting (operation-count metrics) ----

  /// Packets ever allocated over the pool's lifetime — a monotone
  /// counter (trim() does not lower it), so before/after deltas are
  /// always safe.
  std::uint64_t total_allocated() const { return allocated_total_; }
  /// acquire() calls over the pool's lifetime; the recycle ratio is
  /// 1 - total_allocated()/total_acquires().
  std::uint64_t total_acquires() const { return acquires_; }
  std::size_t free_count() const { return free_.size(); }
  /// Packets currently held by live PacketPtrs.
  std::size_t live_count() const { return owned_.size() - free_.size(); }
  /// High-water mark of live_count() since construction (or the last
  /// relax_live_highwater()) — the run's true in-flight packet peak,
  /// even on a warm pool where total_allocated() stops moving.
  std::size_t live_highwater() const { return live_highwater_; }
  /// Resets the high-water mark to the current live count, so a run
  /// measured on a reused pool reports its own peak.
  void relax_live_highwater() { live_highwater_ = live_count(); }
  /// Packets currently owned (live + parked in the free list).
  std::size_t owned_count() const { return owned_.size(); }

  /// Frees the packets parked in the free list (keeps live ones).
  /// O(owned); total_allocated() is unaffected.
  void trim() {
    if (free_.empty()) return;
    std::unordered_set<const Packet*> idle(free_.begin(), free_.end());
    auto is_idle = [&idle](const std::unique_ptr<Packet>& p) {
      return idle.count(p.get()) != 0;
    };
    owned_.erase(std::remove_if(owned_.begin(), owned_.end(), is_idle),
                 owned_.end());
    free_.clear();
  }

 private:
  std::vector<std::unique_ptr<Packet>> owned_;  // live + idle packets
  std::vector<Packet*> free_;                   // subset of owned_, idle
  std::uint64_t acquires_ = 0;
  std::uint64_t allocated_total_ = 0;
  std::size_t live_highwater_ = 0;
};

}  // namespace pdq::net
