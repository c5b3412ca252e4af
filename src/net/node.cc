#include "net/node.h"

#include <cassert>

#include "net/topology.h"

namespace pdq::net {

void Port::set_controller(std::unique_ptr<LinkController> c) {
  controller_ = std::move(c);
  if (controller_) controller_->attach(*this);
}

Node::Node(Topology& topo, NodeId id, sim::Time processing_delay)
    : topo_(topo), id_(id), processing_delay_(processing_delay) {}

Port& Node::add_port(SimplexLink& out, std::int64_t buffer_bytes) {
  assert(out.from == id_);
  ports_.push_back(std::make_unique<Port>(*this, out, buffer_bytes));
  Port& p = *ports_.back();
  port_by_neighbor_[out.to] = &p;
  return p;
}

Port* Node::port_to(NodeId neighbor) {
  Port** port = port_by_neighbor_.find(neighbor);
  return port == nullptr ? nullptr : *port;
}

void Node::receive(PacketPtr p, SimplexLink* in) {
  assert(p->route()[static_cast<std::size_t>(p->hop)] == id_);

  // Reverse-direction packets update the paired forward port's controller:
  // this node is the upstream side of the link the ACK is reporting on.
  if (in != nullptr && is_reverse(p->type)) {
    if (Port* fwd = port_to(in->from); fwd && fwd->controller()) {
      fwd->controller()->on_reverse(*p);
    }
  }

  if (p->at_destination()) {
    deliver_local(std::move(p));
    return;
  }

  if (processing_delay_ > 0) {
    topo_.sim().schedule_in(processing_delay_,
                            [this, p = std::move(p)]() mutable {
                              dispatch(std::move(p));
                            });
  } else {
    dispatch(std::move(p));
  }
}

void Node::send(PacketPtr p) {
  assert(!p->route().empty() && p->route().front() == id_);
  p->hop = 0;
  dispatch(std::move(p));
}

void Node::dispatch(PacketPtr p) {
  const NodeId next = p->next_hop();
  assert(next != kInvalidNode && "packet has nowhere to go");
  Port* port = port_to(next);
  assert(port != nullptr && "route uses a non-existent link");
  transmit_out(*port, std::move(p));
}

void Node::receive_dispatch(PacketPtr p) {
  assert(p->route()[static_cast<std::size_t>(p->hop)] == id_);
  assert(!p->at_destination());
  dispatch(std::move(p));
}

void Node::settle_coalesced(Port& port, sim::Time now) {
  // A coalesced transmission has no tx-complete event; the busy marker is
  // cleared lazily once the wire has freed up. At the exact free-up
  // instant, clear only if the chain's tx-complete — whose tie-break key
  // (tx_started_, tx_seq_) was reserved at transmission start — would
  // already have executed before the event running right now; otherwise
  // the port must still count as busy for the rest of this instant (the
  // reserved resume event will do the clearing in chain position).
  if (!port.busy_ || !port.coalesced_tx_) return;
  if (now < port.busy_until_) return;
  if (now == port.busy_until_) {
    sim::Simulator& sim = port.owner().topo_.sim();
    const bool chain_txdone_already_ran =
        port.tx_started_ < sim.current_event_vtime() ||
        (port.tx_started_ == sim.current_event_vtime() &&
         port.tx_seq_ < sim.current_event_seq());
    if (!chain_txdone_already_ran) return;
  }
  port.busy_ = false;
  port.coalesced_tx_ = false;
}

void Node::transmit_out(Port& port, PacketPtr p) {
  if (!port.link().up) {
    // Administratively-down link (scenario timelines): the packet is
    // lost at the transmitter, before any controller sees it.
    ++port.wire_drops;
    return;
  }
  settle_coalesced(port, topo_.sim().now());
  if (is_forward(p->type) && port.controller()) {
    port.controller()->on_forward(*p);
  }
  const bool accepted = port.enqueue(std::move(p));
  if (port.queue_series) {
    port.queue_series->record(topo_.sim().now(),
                              static_cast<double>(port.queued_bytes()));
  }
  if (accepted && port.controller()) port.controller()->on_enqueue();
  if (!accepted) return;
  if (!port.busy_) {
    start_tx(port);
  } else if (port.coalesced_tx_ && !port.resume_scheduled_) {
    // The in-flight packet has no tx-complete event to start us; wake the
    // transmitter when the wire frees up, tie-ordered exactly as the
    // chain's tx-complete (reserved at transmission start) would be.
    port.resume_scheduled_ = true;
    --port.events_coalesced;
    topo_.sim().schedule_at_reserved(port.busy_until_, port.tx_started_,
                                     port.tx_seq_,
                                     [this, &port] { resume_tx(port); });
  }
}

void Node::resume_tx(Port& port) {
  port.resume_scheduled_ = false;
  // This event *is* the stand-in for the chain's tx-complete: once the
  // wire is free, clear unconditionally (no tie-key comparison — the
  // chain event would be executing right now).
  if (port.busy_ && port.coalesced_tx_ &&
      topo_.sim().now() >= port.busy_until_) {
    port.busy_ = false;
    port.coalesced_tx_ = false;
  }
  if (!port.busy_) {
    start_tx(port);
  } else if (port.coalesced_tx_ && !port.queue_empty()) {
    // Re-busied (a same-instant push restarted the transmitter first);
    // chase the new free-up time for the still-queued packets.
    port.resume_scheduled_ = true;
    --port.events_coalesced;
    topo_.sim().schedule_at_reserved(port.busy_until_, port.tx_started_,
                                     port.tx_seq_,
                                     [this, &port] { resume_tx(port); });
  }
}

void Node::start_tx(Port& port) {
  if (port.queue_empty()) return;
  port.busy_ = true;
  PacketPtr p = port.dequeue();
  if (port.queue_series) {
    port.queue_series->record(topo_.sim().now(),
                              static_cast<double>(port.queued_bytes()));
  }
  const sim::Time tx = sim::transmission_time(p->size_bytes, port.link().rate_bps);

  if (port.link().drop_rate == 0.0 && port.link().fault == nullptr) {
    // Coalesced fast path (lossless link — no RNG draw, so the loss-check
    // event can be elided without perturbing the random stream): schedule
    // the next-hop arrival directly and clear the busy marker lazily.
    // Timestamps, FIFO order and meter/queue-series records are identical
    // to the processing -> serialization -> propagation event chain.
    const sim::Time done = topo_.sim().now() + tx;
    if (port.meter) port.meter->on_bytes(done, p->size_bytes);
    SimplexLink* link = &port.link();
    Node& dst = topo_.node(link->to);
    const sim::Time arrive = done + link->prop_delay;
    port.coalesced_tx_ = true;
    port.busy_until_ = done;
    port.tx_started_ = topo_.sim().now();
    // Reserve the tie-break position the chain's tx-complete event would
    // have held; the arrival below and any resume event inherit it.
    port.tx_seq_ = topo_.sim().reserve_event_order();

    const auto& r = p->route();
    const bool final_hop = static_cast<std::size_t>(p->hop) + 2 >= r.size();
    bool arrival_work = final_hop;
    if (!arrival_work && is_reverse(p->type)) {
      // Reverse packets must hit the paired forward port's controller at
      // the arrival instant (Algorithm 3 is time-sensitive) — unless that
      // controller declares its reverse pass a no-op.
      Port* paired = dst.port_to(id_);
      arrival_work =
          paired && paired->controller() && paired->controller()->reverse_hook();
    }
    if (arrival_work) {
      ++port.events_coalesced;  // saved the tx-complete event
      // As-if vtime `done`: the chain's tx-complete would have scheduled
      // this arrival at serialization end, so it must tie-break as such.
      topo_.sim().schedule_at_reserved(
          arrive, done, port.tx_seq_,
          [&dst, link, p = std::move(p)]() mutable {
            ++p->hop;
            dst.receive(std::move(p), link);
          });
    } else {
      // Transit hop with no arrival-instant work: fold this node's
      // tx-complete, the arrival and the downstream processing event into
      // one dispatch event at arrival + processing time. With a
      // processing delay the chain's arrival event would have scheduled
      // the dispatch at the arrival instant (vtime `arrive`); without
      // one, dispatch happens inside the arrival event itself, which the
      // tx-complete scheduled at `done`.
      const sim::Time processing = dst.processing_delay();
      port.events_coalesced += processing > 0 ? 2 : 1;
      topo_.sim().schedule_at_reserved(arrive + processing,
                                       processing > 0 ? arrive : done,
                                       port.tx_seq_,
                                       [&dst, p = std::move(p)]() mutable {
                                         ++p->hop;
                                         dst.receive_dispatch(std::move(p));
                                       });
    }
    if (!port.queue_empty() && !port.resume_scheduled_) {
      port.resume_scheduled_ = true;
      --port.events_coalesced;
      topo_.sim().schedule_at_reserved(port.busy_until_, port.tx_started_,
                                       port.tx_seq_,
                                       [this, &port] { resume_tx(port); });
    }
    return;
  }

  // Lossy link: keep the explicit tx-complete event — the loss draw must
  // happen there, in event order, to leave the RNG stream untouched. A
  // link with an installed fault model rides the same chain: its
  // per-packet decisions (from the fault plane's own salted RNG) also
  // happen at tx completion, after the legacy drop_rate draw.
  port.coalesced_tx_ = false;
  topo_.sim().schedule_in(tx, [this, &port, p = std::move(p)]() mutable {
    if (port.meter) port.meter->on_bytes(topo_.sim().now(), p->size_bytes);

    bool lost = port.link().drop_rate > 0.0 &&
                topo_.rng().bernoulli(port.link().drop_rate);
    if (!lost && port.link().fault != nullptr) {
      lost = port.link().fault->should_drop(port.link(), *p);
    }
    if (lost) {
      ++port.wire_drops;
    } else {
      SimplexLink* link = &port.link();
      Node& dst = topo_.node(link->to);
      topo_.sim().schedule_in(link->prop_delay,
                              [&dst, link, p = std::move(p)]() mutable {
                                ++p->hop;
                                dst.receive(std::move(p), link);
                              });
    }
    port.busy_ = false;
    start_tx(port);
  });
}

void Switch::deliver_local(PacketPtr p) {
  (void)p;
  assert(false && "switches are never packet destinations");
}

double Host::nic_rate_bps() const {
  assert(!ports().empty());
  return ports().front()->link().rate_bps;
}

void Host::deliver_local(PacketPtr p) {
  // Reverse packets belong to the local sender agent, forward packets to
  // the local receiver agent. Packets for unknown flows (e.g. a retransmit
  // arriving after completion) are dropped silently.
  auto& table = is_reverse(p->type) ? senders_ : receivers_;
  if (Agent** agent = table.find(p->flow)) (*agent)->on_packet(p);
}

}  // namespace pdq::net
