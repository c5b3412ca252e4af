// Nodes (hosts and switches) and their output ports.
//
// A Port bundles the outgoing simplex link, its FIFO tail-drop byte queue,
// the transmitter state machine and an optional per-link protocol
// controller. Forwarding is source-routed: packets carry their node path.
#pragma once

#include <memory>
#include <vector>

#include "net/id_map.h"
#include "net/link.h"
#include "net/link_controller.h"
#include "net/multi_queue.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace pdq::net {

class Topology;
class Node;

class Port {
 public:
  Port(Node& owner, SimplexLink& link, std::int64_t buffer_bytes)
      : owner_(owner), link_(link), queue_(buffer_bytes) {}

  SimplexLink& link() { return link_; }
  const SimplexLink& link() const { return link_; }
  DropTailQueue& queue() { return queue_; }
  const DropTailQueue& queue() const { return queue_; }
  Node& owner() { return owner_; }

  LinkController* controller() { return controller_.get(); }
  const LinkController* controller() const { return controller_.get(); }
  void set_controller(std::unique_ptr<LinkController> c);

  /// Optional multi-queue service/marking discipline (multi_queue.h).
  /// When installed, the queue-path helpers below route through it;
  /// when absent they fall through to the single drop-tail FIFO — the
  /// historical code path, bit-for-bit. Install before traffic flows
  /// (packets already sitting in the FIFO stay there).
  MultiQueuePort* multi_queue() { return mq_.get(); }
  const MultiQueuePort* multi_queue() const { return mq_.get(); }
  void set_multi_queue(std::unique_ptr<MultiQueuePort> mq) {
    mq_ = std::move(mq);
  }

  bool enqueue(PacketPtr p) {
    return mq_ ? mq_->push(std::move(p)) : queue_.push(std::move(p));
  }
  PacketPtr dequeue() { return mq_ ? mq_->pop() : queue_.pop(); }
  bool queue_empty() const { return mq_ ? mq_->empty() : queue_.empty(); }
  std::int64_t queued_bytes() const {
    return mq_ ? mq_->bytes() : queue_.bytes();
  }
  std::int64_t queue_drops() const {
    return queue_.drops() + (mq_ ? mq_->drops() : 0);
  }

  /// Optional instrumentation, owned by the harness.
  sim::RateMeter* meter = nullptr;
  sim::TimeSeries* queue_series = nullptr;

  std::int64_t wire_drops = 0;  // random on-the-wire losses (Fig 9)
  /// Net events saved by transmit coalescing on this port (tx-complete
  /// and absorbed processing events avoided, minus resume events added).
  std::uint64_t events_coalesced = 0;

 private:
  friend class Node;
  Node& owner_;
  SimplexLink& link_;
  DropTailQueue queue_;
  std::unique_ptr<MultiQueuePort> mq_;
  std::unique_ptr<LinkController> controller_;
  bool busy_ = false;
  // Coalesced-transmit state: when a transmission is in flight with no
  // tx-complete event (lossless links), busy_until_ records when the wire
  // frees up; a resume event is scheduled lazily only if packets queue up
  // behind the in-flight one.
  bool coalesced_tx_ = false;
  bool resume_scheduled_ = false;
  sim::Time busy_until_ = 0;
  /// When the in-flight coalesced transmission started — the instant the
  /// chain's tx-complete event would have been scheduled — and the event
  /// sequence number reserved there. Resume events adopt both as their
  /// as-if tie-break key so they run exactly where the chain's
  /// tx-complete would have.
  sim::Time tx_started_ = 0;
  std::uint64_t tx_seq_ = 0;
};

class Node {
 public:
  Node(Topology& topo, NodeId id, sim::Time processing_delay);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Topology& topo() { return topo_; }
  sim::Time processing_delay() const { return processing_delay_; }

  /// Installs an output port for `out` (called by Topology).
  Port& add_port(SimplexLink& out, std::int64_t buffer_bytes);

  Port* port_to(NodeId neighbor);
  const std::vector<std::unique_ptr<Port>>& ports() const { return ports_; }

  /// Entry point for packets arriving over `in` (hop already advanced).
  void receive(PacketPtr p, SimplexLink* in);

  /// Entry point for locally originated packets (route[0] must be id()).
  void send(PacketPtr p);

 protected:
  /// Handles packets whose destination is this node.
  virtual void deliver_local(PacketPtr p) = 0;

  Topology& topo_;

 private:
  void dispatch(PacketPtr p);
  void transmit_out(Port& port, PacketPtr p);
  void start_tx(Port& port);
  /// Arrival entry point for coalesced transit packets: the upstream
  /// transmitter already accounted for this node's processing delay, so
  /// the packet goes straight to the output port.
  void receive_dispatch(PacketPtr p);
  /// Clears a coalesced-transmit busy marker once the wire has freed up.
  static void settle_coalesced(Port& port, sim::Time now);
  void resume_tx(Port& port);

  NodeId id_;
  sim::Time processing_delay_;
  std::vector<std::unique_ptr<Port>> ports_;
  IdMap<NodeId, Port*> port_by_neighbor_;
};

class Switch : public Node {
 public:
  using Node::Node;

 protected:
  void deliver_local(PacketPtr p) override;
};

struct FlowResult;

/// Transport endpoint installed on a Host; one per flow per direction.
class Agent {
 public:
  virtual ~Agent() = default;
  /// Sender agents: begin transmission. Receiver agents: no-op.
  virtual void start() {}
  virtual void on_packet(const PacketPtr& p) = 0;
  /// Sender agents report their flow outcome here; receivers return null.
  virtual const FlowResult* flow_result() const { return nullptr; }
  /// Replaces the sender's route mid-flow (harness link-failure
  /// timelines). A null route means no path remains — senders that can
  /// should terminate the flow. Packets already in flight keep the old
  /// (immutable) route; only subsequent sends use the new one. Default:
  /// no-op (receivers follow the data packets' route automatically).
  virtual void reroute(RouteRef route) { (void)route; }
  /// Link-down notification preceding the harness's generic reroute
  /// pass. Return true to claim the event: the harness then skips the
  /// parent-route crossing check for this sender. M-PDQ claims it to
  /// re-pin its per-subflow routes, which the parent route does not
  /// describe. Default: not handled.
  virtual bool handle_link_down(NodeId a, NodeId b) {
    (void)a;
    (void)b;
    return false;
  }

  // --- hybrid packet/fluid handoff (scenario.cc hybrid backend) ---
  /// The rate to seed the fluid model with when this sender's packet
  /// segment hands off: the last positive protocol-granted rate
  /// (explicit-rate stacks) or a cwnd/srtt estimate (TCP family).
  /// 0 = unknown; the fluid model then applies its own 2-RTT ramp.
  virtual double handoff_rate_bps() const { return 0.0; }
  /// Seeds initial rate state on a sender resuming a fluid-advanced
  /// flow (the packet tail segment): applied at start() only if the
  /// protocol has not granted a rate by then, so explicit-rate stacks
  /// resume at the fluid equilibrium instead of re-ramping from zero.
  /// Default: ignored (window-based stacks ramp per their own rules).
  virtual void seed_rate(double bps) { (void)bps; }

  // --- retirement protocol (streaming-metrics mode; scenario.cc) ---
  /// True when the agent holds no state a still-running simulation can
  /// observe: its flow is terminated and no in-flight packet will need
  /// it (Host::deliver_local drops packets for detached flows, so a
  /// retirable agent may be destroyed mid-run). Default: never — agents
  /// that cannot prove it (TCP/DCTCP receivers, M-PDQ) live to run end.
  virtual bool retirable() const { return false; }
  /// Cancels any events still scheduled against `this` so destruction
  /// mid-run is safe. Implementations guard each cancel with a per-event
  /// pending flag, so the agent's own state says which events are live.
  /// Cancelling an id whose event already ran, or a default EventId{},
  /// is a no-op (generations start at 1; see event_queue.h).
  virtual void quiesce() {}
  /// Approximate heap footprint: sizeof the dynamic type plus owned
  /// container capacities. Used for the peak_flow_bytes counter — an
  /// operation-count-style memory metric, not an allocator measurement.
  virtual std::size_t footprint_bytes() const { return sizeof(*this); }
};

class Host : public Node {
 public:
  using Node::Node;

  /// NIC rate = rate of the first (usually only) outgoing link.
  double nic_rate_bps() const;

  void attach_sender(FlowId f, Agent* a) { senders_[f] = a; }
  void attach_receiver(FlowId f, Agent* a) { receivers_[f] = a; }
  void detach_sender(FlowId f) { senders_.erase(f); }
  void detach_receiver(FlowId f) { receivers_.erase(f); }

  /// Attached sender agents by flow id — the invariant auditor's ground
  /// truth for "a live sender owns this flow" (M-PDQ subflow ids and
  /// hybrid tail-segment ids included, unlike the harness's slot table).
  /// Iteration order is unspecified.
  const IdMap<FlowId, Agent*>& attached_senders() const { return senders_; }

 protected:
  void deliver_local(PacketPtr p) override;

 private:
  IdMap<FlowId, Agent*> senders_;
  IdMap<FlowId, Agent*> receivers_;
};

}  // namespace pdq::net
