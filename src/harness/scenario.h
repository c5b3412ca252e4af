// Scenario runner: wires a protocol stack onto a topology, runs a set of
// flows, and collects the metrics the paper reports.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/audit.h"
#include "net/builders.h"
#include "net/flow.h"
#include "net/paced_sender.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace pdq::stats {
struct StreamingSpec;  // stats/streaming.h
class RunStats;
}  // namespace pdq::stats

namespace pdq::flowsim {
enum class Model;  // flowsim/flowsim.h
}  // namespace pdq::flowsim

namespace pdq::faults {
struct FaultSpec;  // faults/fault_spec.h
}  // namespace pdq::faults

namespace pdq::harness {

struct TimelineSpec;  // harness/timeline.h

/// Hybrid packet/fluid fast-forward (docs/architecture.md, "Hybrid
/// packet/fluid backend"). Large deadline-free flows run their first
/// `head_bytes` and last `tail_bytes` through the packet engine —
/// admission, PDQ preemption against packet flows, and the final ~2-RTT
/// completion dance stay packet-accurate — while the middle advances in
/// the S5.5 fluid model (src/flowsim) on its 1 ms grid at the model's
/// equilibrium rates. Deadline flows and flows below `min_fluid_bytes`
/// never leave the packet engine, so every PDQ scheduling decision that
/// matters for Application Throughput is exact. Hybrid runs are
/// approximate by construction; the hybrid≈packet differential test
/// pins mean/p99 FCT against the pure-packet engine on small fabrics.
/// Requires streaming-metrics mode (per-flow result vectors would
/// defeat its O(active-flows) memory goal).
struct HybridSpec {
  /// Packet-engine prefix of each fluid-eligible flow: long enough to
  /// pay admission/ramp-up costs for real (>= a few BDPs).
  std::int64_t head_bytes = 64 * 1024;
  /// Packet-engine suffix: covers the last ~2 RTTs before completion,
  /// where PDQ's TERM handshake and preemption decisions live.
  std::int64_t tail_bytes = 64 * 1024;
  /// Flows below this — and all deadline flows — stay pure packet.
  /// Clamped up to head_bytes + tail_bytes + 1 if set lower.
  std::int64_t min_fluid_bytes = 256 * 1024;
  /// Fluid recomputation grid (flowsim::Options::step).
  sim::Time grid = sim::kMillisecond;
  /// Fluid rate model; unset derives it from the stack name
  /// (PDQ*/M-PDQ* -> kPdq, D3* -> kD3, anything else -> kRcp max-min).
  std::optional<flowsim::Model> model;
};

/// A pluggable transport: switch-side controllers + end-host agents.
class ProtocolStack {
 public:
  virtual ~ProtocolStack() = default;
  virtual std::string name() const = 0;
  /// Installs per-link controllers (may be a no-op, e.g. TCP).
  virtual void install(net::Topology& topo) = 0;
  virtual std::unique_ptr<net::Agent> make_sender(net::AgentContext ctx) = 0;
  virtual std::unique_ptr<net::Agent> make_receiver(net::AgentContext ctx) = 0;

  /// Stacks that manage their own subflows (M-PDQ) override this to
  /// register extra receiver endpoints. Returns subflow count (1 = none).
  virtual int subflows() const { return 1; }
};

struct RunOptions {
  sim::Time horizon = 30 * sim::kSecond;  // hard stop
  std::uint64_t seed = 1;
  /// Link to instrument with a utilization meter and queue series.
  std::optional<std::pair<net::NodeId, net::NodeId>> watch_link;
  sim::Time meter_bin = sim::kMillisecond;
  /// Random loss rate applied to the watched link, both directions (Fig 9).
  double watch_link_drop_rate = 0.0;
  /// Per-flow throughput sampling for the watched flows (Fig 6/7).
  bool per_flow_series = false;
  sim::Time flow_series_bin = sim::kMillisecond;
  /// Scheduled scenario events executed while the simulation runs
  /// (harness/timeline.h): flow-batch injection, link down/up, load
  /// shifts, plus the steady-state measurement window. Null (the
  /// default) runs the exact pre-timeline code path.
  std::shared_ptr<const TimelineSpec> timeline;
  /// Streaming-metrics mode (stats/streaming.h): flow results fold into
  /// O(1)-memory accumulators as flows terminate, agents are built at
  /// flow start and destroyed at termination, and RunResult::flows stays
  /// empty (RunResult::streaming carries the aggregates instead). Peak
  /// per-flow memory becomes O(active flows), not O(total flows) — the
  /// 100k+-flow scale points. Null (the default) runs the historical
  /// materialize-everything path byte-for-byte. Incompatible with
  /// per_flow_series: run_prepared exits with code 2 when both are set.
  std::shared_ptr<const stats::StreamingSpec> streaming;
  /// Hybrid packet/fluid fast-forward (see HybridSpec). Null (the
  /// default) keeps every flow in the packet engine byte-for-byte.
  /// Requires `streaming`.
  std::shared_ptr<const HybridSpec> hybrid;
  /// Fault plane (faults/fault_spec.h): seeded per-link fault schedules
  /// — Gilbert-Elliott burst loss, selective control/data drop, link
  /// flapping, switch resets. Draws from its own salted RNG stream, so
  /// workload and timeline draws never shift. Null (the default) hooks
  /// nothing: every link stays on the historical path byte-for-byte.
  std::shared_ptr<const faults::FaultSpec> faults;
  /// Watchdog + invariant auditor (harness/audit.h). Null means "off"
  /// unless `faults` is set, in which case a default AuditSpec is
  /// applied automatically (fault runs should fail loudly, not hang).
  std::shared_ptr<const AuditSpec> audit;
};

/// Operation-count metrics for one run — the perf currency on
/// single-core CI, where wall time is meaningless (never asserted on).
struct EngineCounters {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t packet_allocs = 0;    // new Packet objects constructed
  std::uint64_t packet_acquires = 0;  // pool hand-outs (allocs + reuses)
  /// Net events elided by per-hop transmit coalescing (node.cc).
  std::uint64_t events_coalesced = 0;
  /// Flow-state entries visited by switch-controller hot paths (PDQ's
  /// find/prefix/resort work) — flat per packet when the switch fast
  /// path is O(1) amortized.
  std::uint64_t flowlist_scan_ops = 0;

  // Memory peaks (operation-count-style: deterministic object/byte
  // counts, never allocator or RSS measurements).
  /// High-water mark of pending events during the run.
  std::uint64_t peak_pending_events = 0;
  /// High-water mark of in-flight packets (PacketPool live count).
  std::uint64_t pool_highwater = 0;
  /// High-water mark of live transport-agent footprint bytes
  /// (Agent::footprint_bytes sums) — sublinear in total flows under
  /// streaming mode, linear under the default path.
  std::uint64_t peak_flow_bytes = 0;

  /// Percent of acquires served from the free list (0 when idle) — the
  /// single definition behind metrics::packet_recycle_percent() and the
  /// fig13 counters table.
  double recycle_percent() const {
    if (packet_acquires == 0) return 0.0;
    return 100.0 * static_cast<double>(packet_acquires - packet_allocs) /
           static_cast<double>(packet_acquires);
  }
};

struct RunResult {
  /// Per-flow results (empty in streaming mode — see `streaming`).
  std::vector<net::FlowResult> flows;
  /// Streaming-mode aggregates (null on the default path). The metric
  /// helpers below read whichever representation is populated.
  std::shared_ptr<const stats::RunStats> streaming;
  std::int64_t queue_drops = 0;
  std::int64_t wire_drops = 0;
  sim::Time end_time = 0;
  EngineCounters engine;

  // Watched-link instrumentation (when requested).
  sim::TimeSeries queue_series;
  std::vector<double> link_utilization;  // per meter bin
  sim::Time meter_bin = sim::kMillisecond;

  /// Per-flow acked-bytes-per-bin series (when per_flow_series).
  std::vector<std::vector<double>> flow_goodput_bps;

  /// Audit outcome (null when auditing was off). A non-ok report means
  /// the run violated a survivability invariant — chaos tests assert
  /// `audit->ok()`.
  std::shared_ptr<const AuditReport> audit;

  // --- metric helpers ---
  double mean_fct_ms() const;
  double max_fct_ms() const;
  /// Percentage of flows meeting their deadline (the paper's Application
  /// Throughput). Counts all flows; terminated/pending = miss.
  double application_throughput() const;
  std::size_t completed() const;
  const net::FlowResult* flow(net::FlowId id) const;
};

/// Builds a topology and returns the server node ids (host endpoints).
using TopologyBuilder = std::function<std::vector<net::NodeId>(net::Topology&)>;

/// Runs `flows` (src/dst are NodeIds produced by the builder) under
/// `stack` on the topology from `build`. Compatibility shim over
/// run_prepared(); new code should describe experiments declaratively
/// with ExperimentSpec (harness/experiment.h) and SweepRunner
/// (harness/sweep.h) instead.
RunResult run_scenario(ProtocolStack& stack, const TopologyBuilder& build,
                       const std::vector<net::FlowSpec>& flows,
                       const RunOptions& opts = {});

/// Runs `flows` on an already-built topology (`opts.seed` is NOT applied
/// to `topo` — the caller owns topology construction). This is the core
/// the sweep engine drives; `simulator` must be the one `topo` was
/// constructed with.
RunResult run_prepared(ProtocolStack& stack, sim::Simulator& simulator,
                       net::Topology& topo,
                       const std::vector<net::FlowSpec>& flows,
                       const RunOptions& opts = {});

/// Binary-searches the largest `n` in [lo, hi] such that predicate(n) is
/// true, assuming monotonicity (true for small n). Returns lo-1 when even
/// `lo` fails. Used for the "max flows at 99% application throughput"
/// experiments (Fig 3c, 4a, 5a).
int binary_search_max(int lo, int hi, const std::function<bool(int)>& pred);

}  // namespace pdq::harness
