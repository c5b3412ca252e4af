#include "net/packet_pool.h"

namespace pdq::net {

namespace {
/// The thread's current pool: the per-thread static one unless a
/// ScopedPool has swapped in a caller-owned override.
thread_local PacketPool* t_current_pool = nullptr;
}  // namespace

PacketPool& PacketPool::local() {
  if (t_current_pool == nullptr) {
    thread_local PacketPool pool;
    t_current_pool = &pool;
  }
  return *t_current_pool;
}

PacketPool::ScopedPool::ScopedPool(PacketPool& pool)
    : previous_(t_current_pool) {
  t_current_pool = &pool;
}

PacketPool::ScopedPool::~ScopedPool() { t_current_pool = previous_; }

PacketPtr make_packet() { return PacketPool::local().acquire(); }

void PacketPtr::release() {
  if (--p_->hook_.refs == 0) {
    if (p_->hook_.origin != nullptr) {
      p_->hook_.origin->recycle(p_);
    } else {
      delete p_;
    }
  }
  p_ = nullptr;
}

}  // namespace pdq::net
