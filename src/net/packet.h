// In-simulator packet representation.
//
// One Packet struct carries the union of all protocol headers under test
// (PDQ scheduling header, RCP rate header, D3 allocation header). A packet
// is source-routed: it shares its flow's immutable RoutePair (see
// route.h) and the `hop` index advances as it is forwarded.
//
// Packets are pooled: PacketPtr is an intrusive refcounted handle, and
// when the last reference drops the packet is reset and returned to the
// PacketPool it came from instead of being freed (packet_pool.h). All
// header fields are inline — D3's per-hop allocation vectors use
// SmallVec — so steady-state forwarding allocates nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/route.h"
#include "net/small_vec.h"
#include "net/types.h"
#include "sim/time.h"

namespace pdq::net {

enum class PacketType : std::uint8_t {
  kSyn,       // flow initialization (forward)
  kSynAck,    // init acknowledgment (reverse)
  kData,      // payload (forward)
  kAck,       // per-packet data ack (reverse)
  kProbe,     // PDQ rate probe, header only (forward)
  kProbeAck,  // probe echo (reverse)
  kTerm,      // flow termination / early termination (forward)
  kTermAck,   // termination echo (reverse)
};

/// True for packets travelling sender -> receiver.
constexpr bool is_forward(PacketType t) {
  return t == PacketType::kSyn || t == PacketType::kData ||
         t == PacketType::kProbe || t == PacketType::kTerm;
}
constexpr bool is_reverse(PacketType t) { return !is_forward(t); }

/// PDQ scheduling header (paper S3). Field names mirror the paper's
/// subscript-H variables.
struct PdqHeader {
  double rate_bps = 0.0;                 // R_H: allocated / requested rate
  NodeId pause_by = kInvalidNode;        // P_H: switch that paused the flow
  sim::Time deadline = sim::kTimeInfinity;  // D_H: absolute deadline
  sim::Time expected_tx = 0;             // T_H: expected transmission time
  sim::Time rtt = 0;                     // RTT_H: sender-measured RTT
  double inter_probe_rtts = 0.0;         // I_H: inter-probe time, in RTTs
};

/// RCP rate header: switches stamp min(fair share) along the path.
struct RcpHeader {
  double rate_bps = -1.0;  // -1 = unset; switches take the running min
  sim::Time rtt = 0;
};

/// One grant per switch on the forward path; sized for the deepest
/// paper/fig13 topologies (fat-tree: 5 hops, BCube(2,3)/DCell: <= 8)
/// with heap spill beyond that.
inline constexpr std::size_t kInlineAllocHops = 8;
using AllocVec = SmallVec<double, kInlineAllocHops>;

/// D3 allocation header. Each switch on the forward path appends its grant
/// to `alloc`; the sender echoes last round's vector in `prev_alloc` so the
/// switch can release it without per-flow state (as in the D3 paper).
struct D3Header {
  double desired_rate_bps = 0.0;
  bool has_deadline = false;
  bool is_request = false;  // set on one packet per RTT by the sender
  AllocVec alloc;
  AllocVec prev_alloc;
  std::int32_t alloc_idx = 0;  // hop cursor into alloc/prev_alloc
};

class PacketPool;

struct Packet {
  FlowId flow = kInvalidFlow;
  PacketType type = PacketType::kData;
  NodeId src = kInvalidNode;  // original sender of the *flow* direction
  NodeId dst = kInvalidNode;  // this packet's destination

  std::int64_t seq = 0;        // first payload byte (forward), echo (reverse)
  std::int32_t payload = 0;    // payload bytes (0 for control)
  std::int64_t ack = 0;        // cumulative ack (TCP) or echoed seq
  std::int32_t size_bytes = kControlBytes;  // total on-wire size

  RouteRef path;           // shared flow route (see route.h)
  bool reversed = false;   // travelling along path->rev
  std::int32_t hop = 0;    // index of the node currently holding it

  sim::Time sent_time = 0;  // stamped by the sender, echoed for RTT

  // ECN codepoints (multi-queue marking ports, net/multi_queue.h, and
  // the DCTCP family, protocols/dctcp.h). Non-ECT packets are never
  // marked; receivers echo CE back as ECE on the cumulative ACK.
  bool ecn_capable = false;  // ECT: sender opted into marking
  bool ecn_ce = false;       // CE: congestion experienced, set by a queue
  bool ecn_echo = false;     // ECE: receiver's echo of CE (reverse dir)

  PdqHeader pdq;
  RcpHeader rcp;
  D3Header d3;

  /// The node path this packet travels, in travel order.
  const std::vector<NodeId>& route() const {
    static const std::vector<NodeId> kNoRoute;
    if (path == nullptr) return kNoRoute;
    return reversed ? path->rev : path->fwd;
  }
  /// Installs `fwd` as the forward path (helper for tests / senders that
  /// build ad-hoc routes).
  void set_route(std::vector<NodeId> fwd) {
    path = make_route(std::move(fwd));
    reversed = false;
  }

  NodeId next_hop() const {
    const auto& r = route();
    const auto next = static_cast<std::size_t>(hop) + 1;
    return next < r.size() ? r[next] : kInvalidNode;
  }
  bool at_destination() const {
    const auto& r = route();
    return !r.empty() && r[static_cast<std::size_t>(hop)] == dst;
  }

  /// Restores every field to its default so a recycled packet is
  /// indistinguishable from a fresh one (pool invariant; tested).
  void reset() {
    flow = kInvalidFlow;
    type = PacketType::kData;
    src = kInvalidNode;
    dst = kInvalidNode;
    seq = 0;
    payload = 0;
    ack = 0;
    size_bytes = kControlBytes;
    path = nullptr;
    reversed = false;
    hop = 0;
    sent_time = 0;
    ecn_capable = false;
    ecn_ce = false;
    ecn_echo = false;
    pdq = PdqHeader{};
    rcp = RcpHeader{};
    d3.desired_rate_bps = 0.0;
    d3.has_deadline = false;
    d3.is_request = false;
    d3.alloc.clear();
    d3.prev_alloc.clear();
    d3.alloc_idx = 0;
  }

 private:
  friend class PacketPool;
  friend class PacketPtr;

  /// Intrusive pool bookkeeping. Deliberately inert under copy/move so a
  /// value-copied Packet never inherits another packet's refcount or pool
  /// identity. Packets never cross threads (each simulation is
  /// single-threaded), so the refcount is plain.
  struct PoolHook {
    std::uint32_t refs = 0;
    PacketPool* origin = nullptr;  // owning pool; null = plain new/delete
    PoolHook() = default;
    PoolHook(const PoolHook&) {}
    PoolHook& operator=(const PoolHook&) { return *this; }
  };
  PoolHook hook_;
};

/// Intrusive refcounted handle; releasing the last reference recycles the
/// packet into its PacketPool (or deletes it when pool-less).
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  PacketPtr(const PacketPtr& o) : p_(o.p_) {
    if (p_ != nullptr) ++p_->hook_.refs;
  }
  PacketPtr(PacketPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }

  PacketPtr& operator=(const PacketPtr& o) {
    PacketPtr copy(o);
    std::swap(p_, copy.p_);
    return *this;
  }
  PacketPtr& operator=(PacketPtr&& o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }

  // Most handles die moved-from (every hop moves the packet on), so
  // the null test stays inline and only a live handle pays the call.
  ~PacketPtr() {
    if (p_ != nullptr) release();
  }

  Packet* get() const { return p_; }
  Packet* operator->() const { return p_; }
  Packet& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

  friend bool operator==(const PacketPtr& a, const PacketPtr& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const PacketPtr& a, const PacketPtr& b) {
    return a.p_ != b.p_;
  }
  friend bool operator==(const PacketPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }
  friend bool operator!=(const PacketPtr& a, std::nullptr_t) {
    return a.p_ != nullptr;
  }

 private:
  friend class PacketPool;
  /// Adopts one reference (pool hand-out path).
  explicit PacketPtr(Packet* adopted) : p_(adopted) {}

  /// Drops the held reference. Precondition: p_ != nullptr.
  void release();

  Packet* p_ = nullptr;
};

/// Fresh packet from the calling thread's pool (packet_pool.h).
PacketPtr make_packet();

/// Builds the reverse-direction reply skeleton for `p` (same shared
/// route, direction flipped, headers copied, hop reset). The caller sets
/// type/seq/sizes.
inline PacketPtr make_reply(const Packet& p, PacketType type) {
  PacketPtr r = make_packet();
  const auto& fwd_route = p.route();
  r->flow = p.flow;
  r->type = type;
  r->src = p.src;
  r->dst = fwd_route.empty() ? p.src : fwd_route.front();
  r->path = p.path;
  r->reversed = !p.reversed;
  r->hop = 0;
  r->seq = p.seq;
  r->payload = 0;
  r->size_bytes = kControlBytes;
  r->sent_time = p.sent_time;
  r->pdq = p.pdq;
  r->rcp = p.rcp;
  r->d3 = p.d3;
  return r;
}

}  // namespace pdq::net
