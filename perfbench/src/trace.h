// Per-layer tracing for the benchmark's traced run.
//
// The simulator has no spans of its own, so the benchmark times calls
// into each layer from outside: TracingStack wraps a registry stack and
// hands the harness forwarding decorators — TracedAgent around every
// sender and receiver, TracedController around every switch controller.
// Each decorated call opens a Span; a span's self time is its duration
// minus the durations of the spans opened inside it (a sender's
// on_packet that transmits through its host's controller, for example).
// Time inside no span at all is the residual: the event loop, port
// transmit/arrival, timers that call agents or controllers directly
// (pacing, rate ticks), the streaming retirement sweep and the fluid
// grid. Callbacks a layer runs inside its span (the harness's on_done
// fold when a sender finishes) count as that layer's self time.
//
// A decorator forwards every virtual of its interface unchanged, so a
// traced run reproduces the untraced run's events and flow results
// exactly; only host time moves.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "net/link_controller.h"
#include "net/node.h"

namespace perfbench {

/// Monotonic host clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : int {
  kCtlForward,
  kCtlReverse,
  kCtlEnqueue,
  kSenderPacket,
  kSenderStart,
  kReceiverPacket,
  kCount,
};

struct LayerStat {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;

  double ns_per_call() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(self_ns) / static_cast<double>(calls);
  }
};

/// Span bookkeeping for one traced run (single-threaded, like the run).
class Tracer {
 public:
  /// Times one call; nests with any span already open.
  class Span {
   public:
    Span(Tracer& t, Layer layer)
        : t_(t), layer_(layer), outer_child_ns_(t.child_ns_) {
      t_.child_ns_ = 0;
      start_ns_ = now_ns();
    }
    ~Span() {
      const std::int64_t d = now_ns() - start_ns_;
      LayerStat& s = t_.stats_[static_cast<std::size_t>(layer_)];
      ++s.calls;
      s.self_ns += d - t_.child_ns_;
      t_.child_ns_ = outer_child_ns_ + d;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
    Layer layer_;
    std::int64_t outer_child_ns_;
    std::int64_t start_ns_ = 0;
  };

  const LayerStat& stat(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }
  /// Host time spent inside any span (valid when no span is open).
  std::int64_t covered_ns() const { return child_ns_; }

  /// Sender outcomes, folded as each traced sender is destroyed.
  std::int64_t packets_sent = 0;
  std::int64_t retransmissions = 0;

 private:
  std::array<LayerStat, static_cast<std::size_t>(Layer::kCount)> stats_{};
  /// Durations of the finished spans directly inside the innermost open
  /// span — or, with none open, of every top-level span so far.
  std::int64_t child_ns_ = 0;
};

/// Forwards every net::Agent virtual to `inner`, timing packet handling
/// and (for senders) start().
class TracedAgent final : public pdq::net::Agent {
 public:
  TracedAgent(std::unique_ptr<pdq::net::Agent> inner, Tracer& tracer,
              bool sender)
      : inner_(std::move(inner)), tracer_(tracer), sender_(sender) {}
  ~TracedAgent() override;

  void start() override;
  void on_packet(const pdq::net::PacketPtr& p) override;
  const pdq::net::FlowResult* flow_result() const override {
    return inner_->flow_result();
  }
  void reroute(pdq::net::RouteRef route) override {
    inner_->reroute(std::move(route));
  }
  bool handle_link_down(pdq::net::NodeId a, pdq::net::NodeId b) override {
    return inner_->handle_link_down(a, b);
  }
  double handoff_rate_bps() const override {
    return inner_->handoff_rate_bps();
  }
  void seed_rate(double bps) override { inner_->seed_rate(bps); }
  bool retirable() const override { return inner_->retirable(); }
  void quiesce() override { inner_->quiesce(); }
  /// The inner agent's footprint: the decorator itself is benchmark
  /// overhead, not simulator state, so peak_flow_bytes stays exact.
  std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }

 private:
  std::unique_ptr<pdq::net::Agent> inner_;
  Tracer& tracer_;
  bool sender_;
};

/// Forwards every net::LinkController virtual to `inner`, timing the
/// three per-packet hooks.
class TracedController final : public pdq::net::LinkController {
 public:
  TracedController(std::unique_ptr<pdq::net::LinkController> inner,
                   Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void attach(pdq::net::Port& port) override {
    LinkController::attach(port);
    inner_->attach(port);
  }
  void on_forward(pdq::net::Packet& p) override;
  void on_reverse(pdq::net::Packet& p) override;
  void on_enqueue() override;
  bool reverse_hook() const override { return inner_->reverse_hook(); }
  std::uint64_t flow_scan_ops() const override {
    return inner_->flow_scan_ops();
  }
  void reset_state() override { inner_->reset_state(); }
  void granted_flows(std::vector<pdq::net::GrantInfo>& out) const override {
    inner_->granted_flows(out);
  }

 private:
  std::unique_ptr<pdq::net::LinkController> inner_;
  Tracer& tracer_;
};

using ControllerFactory =
    std::function<std::unique_ptr<pdq::net::LinkController>()>;

/// The controllers `stack.install()` puts on every port, as a factory
/// (null for stacks that install none, e.g. TCP and DCTCP). Covers the
/// registry's built-in stacks made with default StackOptions.
ControllerFactory controllers_of(const pdq::harness::ProtocolStack& stack);

/// A registry stack with every agent and controller wrapped for tracing.
class TracingStack final : public pdq::harness::ProtocolStack {
 public:
  TracingStack(std::unique_ptr<pdq::harness::ProtocolStack> inner,
               Tracer& tracer)
      : inner_(std::move(inner)),
        controllers_(controllers_of(*inner_)),
        tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void install(pdq::net::Topology& topo) override;
  std::unique_ptr<pdq::net::Agent> make_sender(
      pdq::net::AgentContext ctx) override;
  std::unique_ptr<pdq::net::Agent> make_receiver(
      pdq::net::AgentContext ctx) override;
  int subflows() const override { return inner_->subflows(); }

 private:
  std::unique_ptr<pdq::harness::ProtocolStack> inner_;
  ControllerFactory controllers_;
  Tracer& tracer_;
};

}  // namespace perfbench
