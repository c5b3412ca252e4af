#include "trace.h"

#include "core/pdq_switch.h"
#include "harness/stacks.h"
#include "protocols/d3.h"
#include "protocols/rcp.h"

namespace perfbench {

using pdq::net::Agent;

TracedAgent::~TracedAgent() {
  if (!sender_) return;
  if (const pdq::net::FlowResult* r = inner_->flow_result()) {
    tracer_.packets_sent += r->packets_sent;
    tracer_.retransmissions += r->retransmissions;
  }
}

void TracedAgent::start() {
  if (!sender_) {
    inner_->start();
    return;
  }
  Tracer::Span span(tracer_, Layer::kSenderStart);
  inner_->start();
}

void TracedAgent::on_packet(const pdq::net::PacketPtr& p) {
  Tracer::Span span(tracer_,
                    sender_ ? Layer::kSenderPacket : Layer::kReceiverPacket);
  inner_->on_packet(p);
}

void TracedController::on_forward(pdq::net::Packet& p) {
  Tracer::Span span(tracer_, Layer::kCtlForward);
  inner_->on_forward(p);
}

void TracedController::on_reverse(pdq::net::Packet& p) {
  Tracer::Span span(tracer_, Layer::kCtlReverse);
  inner_->on_reverse(p);
}

void TracedController::on_enqueue() {
  Tracer::Span span(tracer_, Layer::kCtlEnqueue);
  inner_->on_enqueue();
}

ControllerFactory controllers_of(const pdq::harness::ProtocolStack& stack) {
  namespace h = pdq::harness;
  // Mirrors install_pdq / install_rcp / install_d3: one fresh controller
  // per port with the stack's configuration. The registry builds M-PDQ,
  // RCP and D3 from default configs when no StackOptions override them.
  if (const auto* s = dynamic_cast<const h::PdqStack*>(&stack)) {
    const pdq::core::PdqConfig cfg = s->config();
    return [cfg] { return std::make_unique<pdq::core::PdqLinkController>(cfg); };
  }
  if (dynamic_cast<const h::MpdqStack*>(&stack) != nullptr) {
    const pdq::core::PdqConfig cfg = pdq::core::MpdqConfig{}.pdq;
    return [cfg] { return std::make_unique<pdq::core::PdqLinkController>(cfg); };
  }
  if (dynamic_cast<const h::RcpStack*>(&stack) != nullptr) {
    return [] {
      return std::make_unique<pdq::protocols::RcpLinkController>(
          pdq::protocols::RcpConfig{});
    };
  }
  if (dynamic_cast<const h::D3Stack*>(&stack) != nullptr) {
    return [] {
      return std::make_unique<pdq::protocols::D3LinkController>(
          pdq::protocols::D3Config{});
    };
  }
  return nullptr;
}

void TracingStack::install(pdq::net::Topology& topo) {
  if (!controllers_) {
    // No controllers to wrap (TCP: nothing; DCTCP: multi-queue ports).
    inner_->install(topo);
    return;
  }
  topo.install_controllers([this](pdq::net::Port&) {
    return std::make_unique<TracedController>(controllers_(), tracer_);
  });
}

std::unique_ptr<Agent> TracingStack::make_sender(pdq::net::AgentContext ctx) {
  return std::make_unique<TracedAgent>(inner_->make_sender(std::move(ctx)),
                                       tracer_, /*sender=*/true);
}

std::unique_ptr<Agent> TracingStack::make_receiver(
    pdq::net::AgentContext ctx) {
  return std::make_unique<TracedAgent>(inner_->make_receiver(std::move(ctx)),
                                       tracer_, /*sender=*/false);
}

}  // namespace perfbench
