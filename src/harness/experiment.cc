#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "harness/timeline.h"
#include "net/builders.h"
#include "stats/streaming.h"

namespace pdq::harness {

// ---------------------------------------------------------------------------
// TopologySpec factories
// ---------------------------------------------------------------------------

TopologySpec TopologySpec::single_bottleneck(int n_senders,
                                             net::LinkDefaults d) {
  return {"bottleneck/" + std::to_string(n_senders),
          [n_senders, d](net::Topology& t) {
            return net::build_single_bottleneck(t, n_senders, d);
          }};
}

TopologySpec TopologySpec::single_rooted_tree(int num_tors,
                                              int servers_per_tor) {
  return {"tree/" + std::to_string(num_tors * servers_per_tor),
          [num_tors, servers_per_tor](net::Topology& t) {
            return net::build_single_rooted_tree(t, num_tors,
                                                 servers_per_tor);
          }};
}

TopologySpec TopologySpec::fat_tree(int k) {
  return {"fat-tree/" + std::to_string(k * k * k / 4),
          [k](net::Topology& t) { return net::build_fat_tree(t, k); }};
}

TopologySpec TopologySpec::spine_leaf(int spines, int tors,
                                      int servers_per_rack, double oversub) {
  std::string name = "spine-leaf/" + std::to_string(tors * servers_per_rack);
  if (oversub != 1.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/os%g", oversub);
    name += buf;
  }
  return {std::move(name),
          [spines, tors, servers_per_rack, oversub](net::Topology& t) {
            return net::build_spine_leaf(t, spines, tors, servers_per_rack,
                                         oversub);
          }};
}

TopologySpec TopologySpec::bcube(int n, int k) {
  int servers = 1;
  for (int i = 0; i <= k; ++i) servers *= n;
  return {"bcube/" + std::to_string(servers),
          [n, k](net::Topology& t) { return net::build_bcube(t, n, k); }};
}

TopologySpec TopologySpec::dcell(int n, int l) {
  return {"dcell/" + std::to_string(net::dcell_server_count(n, l)),
          [n, l](net::Topology& t) { return net::build_dcell(t, n, l); }};
}

TopologySpec TopologySpec::jellyfish(int num_switches, int ports,
                                     int net_ports, std::uint64_t seed) {
  return {"jellyfish/" + std::to_string(num_switches * (ports - net_ports)),
          [num_switches, ports, net_ports, seed](net::Topology& t) {
            return net::build_jellyfish(t, num_switches, ports, net_ports,
                                        seed);
          }};
}

TopologySpec TopologySpec::custom(std::string name, TopologyBuilder build) {
  return {std::move(name), std::move(build)};
}

// ---------------------------------------------------------------------------
// WorkloadSpec factories
// ---------------------------------------------------------------------------

WorkloadSpec WorkloadSpec::flow_set(workload::FlowSetOptions opts,
                                    std::string name) {
  return {std::move(name),
          [opts](const std::vector<net::NodeId>& servers, sim::Rng& rng) {
            return workload::make_flows(servers, opts, rng);
          }};
}

WorkloadSpec WorkloadSpec::open_loop(workload::OpenLoopOptions opts,
                                     std::string name) {
  return {std::move(name),
          [opts](const std::vector<net::NodeId>& servers, sim::Rng& rng) {
            return workload::make_open_loop_flows(servers, opts, rng);
          }};
}

WorkloadSpec WorkloadSpec::fixed(std::vector<net::FlowSpec> flows,
                                 std::string name) {
  return {std::move(name),
          [flows](const std::vector<net::NodeId>&, sim::Rng&) {
            return flows;
          }};
}

WorkloadSpec WorkloadSpec::custom(std::string name, Fn make) {
  return {std::move(name), std::move(make)};
}

// ---------------------------------------------------------------------------
// Query aggregation
// ---------------------------------------------------------------------------

Scenario aggregation_scenario(const AggregationSpec& a) {
  const int senders = std::max(1, std::min(a.num_flows, 32));
  Scenario s;
  s.topology = TopologySpec::single_bottleneck(senders);
  // Draw order matches the historical bench_common::aggregation_flows:
  // size then (optionally) deadline, per flow, from one stream.
  s.workload = WorkloadSpec::custom(
      "aggregation/" + std::to_string(a.num_flows),
      [a, senders](const std::vector<net::NodeId>& servers, sim::Rng& rng) {
        auto size = workload::uniform_size(a.size_lo, a.size_hi);
        auto dl = workload::exp_deadline(a.deadline_mean, a.deadline_floor);
        std::vector<net::FlowSpec> flows;
        flows.reserve(static_cast<std::size_t>(a.num_flows));
        for (int i = 0; i < a.num_flows; ++i) {
          net::FlowSpec f;
          f.id = i + 1;
          f.size_bytes = size(rng);
          if (a.deadlines) f.deadline = dl(rng);
          f.src = servers[static_cast<std::size_t>(i % senders)];
          f.dst = servers.back();
          flows.push_back(f);
        }
        return flows;
      });
  s.options.horizon = 30 * sim::kSecond;
  return s;
}

std::vector<sched::Job> to_jobs(const std::vector<net::FlowSpec>& flows) {
  std::vector<sched::Job> jobs;
  jobs.reserve(flows.size());
  for (const auto& f : flows) {
    jobs.push_back({f.size_bytes, f.start_time, f.absolute_deadline(),
                    static_cast<int>(f.id)});
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

namespace metrics {

MetricSpec mean_fct_ms() {
  return {"mean_fct_ms",
          [](const RunContext& c) { return c.result->mean_fct_ms(); }};
}

MetricSpec max_fct_ms() {
  return {"max_fct_ms",
          [](const RunContext& c) { return c.result->max_fct_ms(); }};
}

MetricSpec application_throughput() {
  return {"app_throughput",
          [](const RunContext& c) { return c.result->application_throughput(); }};
}

MetricSpec completed() {
  return {"completed", [](const RunContext& c) {
            return static_cast<double>(c.result->completed());
          }};
}

MetricSpec mean_fct_vs_optimal(double bottleneck_bps) {
  return {"mean_fct_vs_optimal", [bottleneck_bps](const RunContext& c) {
            return c.result->mean_fct_ms() /
                   sched::optimal_mean_fct_ms(to_jobs(*c.flows),
                                              bottleneck_bps);
          }};
}

MetricSpec optimal_application_throughput(double bottleneck_bps) {
  return {"optimal_app_throughput", [bottleneck_bps](const RunContext& c) {
            return sched::optimal_application_throughput(to_jobs(*c.flows),
                                                         bottleneck_bps);
          }};
}

MetricSpec optimal_mean_fct_ms(double bottleneck_bps) {
  return {"optimal_mean_fct_ms", [bottleneck_bps](const RunContext& c) {
            return sched::optimal_mean_fct_ms(to_jobs(*c.flows),
                                              bottleneck_bps);
          }};
}

MetricSpec events_processed() {
  return {"events_processed", [](const RunContext& c) {
            return static_cast<double>(c.result->engine.events_executed);
          }};
}

MetricSpec packet_allocs() {
  return {"packet_allocs", [](const RunContext& c) {
            return static_cast<double>(c.result->engine.packet_allocs);
          }};
}

MetricSpec packet_recycle_percent() {
  return {"packet_recycle_pct", [](const RunContext& c) {
            return c.result->engine.recycle_percent();
          }};
}

MetricSpec events_coalesced() {
  return {"events_coalesced", [](const RunContext& c) {
            return static_cast<double>(c.result->engine.events_coalesced);
          }};
}

MetricSpec flowlist_scan_ops() {
  return {"flowlist_scan_ops", [](const RunContext& c) {
            return static_cast<double>(c.result->engine.flowlist_scan_ops);
          }};
}

MetricSpec peak_pending_events() {
  return {"peak_pending_events", [](const RunContext& c) {
            return static_cast<double>(c.result->engine.peak_pending_events);
          }};
}

MetricSpec pool_highwater() {
  return {"pool_highwater", [](const RunContext& c) {
            return static_cast<double>(c.result->engine.pool_highwater);
          }};
}

MetricSpec peak_flow_bytes() {
  return {"peak_flow_bytes", [](const RunContext& c) {
            return static_cast<double>(c.result->engine.peak_flow_bytes);
          }};
}

namespace {

struct Window {
  sim::Time lo = 0;
  sim::Time hi = sim::kTimeInfinity;
};

/// The scenario timeline's measurement window; whole run when absent.
Window metric_window(const RunContext& c) {
  Window w;
  if (c.scenario != nullptr && c.scenario->options.timeline != nullptr) {
    w.lo = c.scenario->options.timeline->warmup;
    w.hi = c.scenario->options.timeline->measure_end;
  }
  return w;
}

bool in_window(const net::FlowResult& f, const Window& w) {
  return f.spec.start_time >= w.lo && f.spec.start_time < w.hi;
}

/// Sorted completion times (ms) of completed in-window flows with
/// size_bytes in [lo, hi).
std::vector<double> windowed_fcts_ms(const RunContext& c, std::int64_t lo,
                                     std::int64_t hi) {
  std::vector<double> fcts;
  const Window w = metric_window(c);
  for (const auto& f : c.result->flows) {
    if (f.outcome != net::FlowOutcome::kCompleted) continue;
    if (!in_window(f, w)) continue;
    if (f.spec.size_bytes < lo || f.spec.size_bytes >= hi) continue;
    fcts.push_back(sim::to_millis(f.completion_time()));
  }
  std::sort(fcts.begin(), fcts.end());
  return fcts;
}

}  // namespace

MetricSpec windowed_mean_fct_ms(std::int64_t bucket_lo,
                                std::int64_t bucket_hi) {
  return {"windowed_mean_fct_ms", [bucket_lo, bucket_hi](const RunContext& c) {
            if (c.result->streaming != nullptr) {
              const auto& s = *c.result->streaming;
              return s.windowed_mean_fct_ms(
                  s.bucket_index(bucket_lo, bucket_hi));
            }
            const auto fcts = windowed_fcts_ms(c, bucket_lo, bucket_hi);
            if (fcts.empty()) return 0.0;
            // Compensated like the streaming accumulator, so the two
            // representations agree bit-for-bit, not just to a ULP.
            stats::CompensatedSum sum;
            for (double v : fcts) sum.add(v);
            return sum.value() / static_cast<double>(fcts.size());
          }};
}

MetricSpec windowed_p99_fct_ms(std::int64_t bucket_lo,
                               std::int64_t bucket_hi) {
  return {"windowed_p99_fct_ms", [bucket_lo, bucket_hi](const RunContext& c) {
            if (c.result->streaming != nullptr) {
              // Sketch estimate: within quantile_alpha relative error of
              // the exact nearest-rank value below.
              const auto& s = *c.result->streaming;
              return s.windowed_p99_fct_ms(
                  s.bucket_index(bucket_lo, bucket_hi));
            }
            const auto fcts = windowed_fcts_ms(c, bucket_lo, bucket_hi);
            // Nearest-rank percentile, the shared definition
            // (stats::nearest_rank): rank ceil(0.99 n), 1-based.
            return stats::nearest_rank(fcts, 0.99);
          }};
}

MetricSpec goodput_gbps() {
  return {"goodput_gbps", [](const RunContext& c) {
            // Flow goodput: acked bytes of flows *starting* in the
            // window, over the span from warmup until the last of them
            // finished (or the run ended). The accounting span follows
            // the flows rather than clamping at measure_end — bytes
            // acked after the window close would otherwise be divided
            // by a window they were not delivered in, overstating
            // goodput (possibly beyond link capacity).
            if (c.result->streaming != nullptr) {
              return c.result->streaming->goodput_gbps();
            }
            const Window w = metric_window(c);
            double bytes = 0;
            sim::Time span_end = w.lo;
            for (const auto& f : c.result->flows) {
              if (!in_window(f, w)) continue;
              bytes += static_cast<double>(f.bytes_acked);
              span_end = std::max(span_end,
                                  f.finish_time == sim::kTimeInfinity
                                      ? c.result->end_time
                                      : f.finish_time);
            }
            if (span_end <= w.lo) return 0.0;
            return bytes * 8.0 / sim::to_seconds(span_end - w.lo) / 1e9;
          }};
}

MetricSpec deadline_miss_percent() {
  return {"deadline_miss_pct", [](const RunContext& c) {
            if (c.result->streaming != nullptr) {
              return c.result->streaming->deadline_miss_percent();
            }
            const Window w = metric_window(c);
            std::size_t deadline_flows = 0;
            std::size_t missed = 0;
            for (const auto& f : c.result->flows) {
              if (!f.spec.has_deadline() || !in_window(f, w)) continue;
              ++deadline_flows;
              if (!f.deadline_met()) ++missed;
            }
            if (deadline_flows == 0) return 0.0;
            return 100.0 * static_cast<double>(missed) /
                   static_cast<double>(deadline_flows);
          }};
}

}  // namespace metrics

// ---------------------------------------------------------------------------
// Columns
// ---------------------------------------------------------------------------

Column stack_column(std::string name) {
  Column c;
  c.label = name;
  c.stack = std::move(name);
  return c;
}

Column stack_column(std::string label, std::string name, StackOptions options,
                    MetricFn metric) {
  Column c;
  c.label = std::move(label);
  c.stack = std::move(name);
  c.options = std::move(options);
  c.metric = std::move(metric);
  return c;
}

}  // namespace pdq::harness
