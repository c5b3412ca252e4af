// pdq_perfbench: runs one benchmark workload and prints one JSON object.
//
//   pdq_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--rev REV]
//
// --trace 0 measures the end-to-end metrics: run time (median over
// repetitions of the identical simulations), peak RSS, the simulated
// flow metrics, and set-up time (median of repeated set-ups, measured
// last so that their allocations never set the peak RSS). --trace 1
// alternates untraced and traced simulations and reports the per-layer
// metrics. Either mode checks flow conservation, every repetition
// against the first (same results digest, same event count) and the
// traced simulations against the untraced ones; "correct" is false and
// the exit code 1 when any check fails. perfbench/run.py builds this
// binary and turns its output into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/registry.h"
#include "net/packet_pool.h"
#include "trace.h"
#include "workloads.h"

namespace h = pdq::harness;
namespace net = pdq::net;
namespace sim = pdq::sim;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = h::kDefaultBaseSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string rev = "unknown";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "pdq_perfbench: %s\nusage: pdq_perfbench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--rev REV]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--rev") {
      a.rev = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One simulation's inputs, built fresh exactly as SweepRunner builds a
/// sample: own packet pool, kernel, seeded topology, workload RNG and
/// registry stack. Member order is destruction order: the pool outlives
/// the simulator, whose pending events may still hold packets.
class Instance {
 public:
  Instance(const Workload& w, std::uint64_t seed)
      : scope_(pool_), topo_(simulator_, seed), workload_(w), seed_(seed) {
    std::int64_t t = now_ns();
    const std::vector<net::NodeId> servers = w.scenario.topology.build(topo_);
    build_s = seconds_since(t);
    t = now_ns();
    sim::Rng rng(seed);
    flows = w.scenario.workload.make(servers, rng);
    make_s = seconds_since(t);
    std::string error;
    stack = h::StackRegistry::global().make(w.stack, {}, &error);
    if (stack == nullptr) usage(error);
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Runs the flows under `s` (the instance's stack, or a wrapper of it)
  /// and returns the host seconds spent inside run_prepared.
  double run(h::ProtocolStack& s, h::RunResult& out) {
    h::RunOptions opts = workload_.scenario.options;
    opts.seed = seed_;
    const std::int64_t t = now_ns();
    out = h::run_prepared(s, simulator_, topo_, flows, opts);
    return seconds_since(t);
  }

  std::vector<net::FlowSpec> flows;
  std::unique_ptr<h::ProtocolStack> stack;
  double build_s = 0.0;
  double make_s = 0.0;

 private:
  net::PacketPool pool_;
  net::PacketPool::ScopedPool scope_;
  sim::Simulator simulator_;
  net::Topology topo_;
  const Workload& workload_;
  std::uint64_t seed_;
};

/// Minimal JSON object writer (keys are plain identifiers).
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& u64(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& boolean(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    q += '"';
    return raw(key, q);
  }
  Json& obj(const char* key, const Json& v) { return raw(key, v.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
    body_ += v;
    return *this;
  }
  std::string body_;
};

/// Correctness checks accumulated over a whole invocation.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok && failures_.size() < 8) failures_.push_back(what);
    ok_ = ok_ && ok;
  }
  /// Every scheduled flow reported, and completed + terminated + failed
  /// adds up to the scheduled count.
  void conserve(const Outcome& o, const std::string& run) {
    expect(o.reported == o.scheduled, run + ": flows reported != scheduled");
    expect(o.completed + o.terminated + o.failed == o.scheduled,
           run + ": completed + terminated + failed != scheduled");
  }
  /// Same results and event count as the reference repetition.
  void same(const Outcome& o, const Outcome& ref, const std::string& run) {
    expect(o.digest == ref.digest, run + ": results digest differs");
    expect(o.events == ref.events, run + ": event count differs");
  }
  bool ok() const { return ok_; }
  std::string failures() const {
    std::string s;
    for (const std::string& f : failures_) {
      if (!s.empty()) s += "; ";
      s += f;
    }
    return s;
  }

 private:
  bool ok_ = true;
  std::vector<std::string> failures_;
};

/// "name n" without the temporary-string concatenation GCC 12 warns on.
std::string label(const char* name, std::size_t n) {
  std::string s = name;
  s += ' ';
  s += std::to_string(n);
  return s;
}

/// The speed probe's table: 16 MiB, resident from the first probe on.
constexpr std::size_t kProbeTableWords = std::size_t{1} << 21;

/// Host speed probe: fixed work shaped like an event loop, independent
/// of the simulator's code, so no change to the simulator can move it.
/// A 4-ary heap of 32k keys is popped and re-pushed, and each pop
/// updates a random slot of the 16 MiB table. Returns the median of five
/// passes, in seconds.
double speed_probe_s() {
  static std::vector<std::uint64_t> table(kProbeTableWords);
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::vector<std::uint64_t> heap;
    const auto sift_down = [&heap](std::size_t i) {
      const std::size_t n = heap.size();
      for (;;) {
        std::size_t least = i;
        for (std::size_t c = 4 * i + 1; c < std::min(n, 4 * i + 5); ++c) {
          if (heap[c] < heap[least]) least = c;
        }
        if (least == i) return;
        std::swap(heap[i], heap[least]);
        i = least;
      }
    };
    const std::int64_t t = now_ns();
    for (int i = 0; i < 32768; ++i) heap.push_back(next());
    for (std::size_t i = heap.size(); i-- > 0;) sift_down(i);
    std::uint64_t acc = 0;
    for (int i = 0; i < 200'000; ++i) {
      const std::uint64_t top = heap[0];
      std::uint64_t& cell = table[(top ^ acc) & (table.size() - 1)];
      cell += top;
      acc += cell;
      heap[0] = top + (next() & 0xFFFFF);
      sift_down(0);
    }
    passes.push_back(seconds_since(t));
    if (acc == 0) table[0] = 1;  // keeps the loop's result observable
  }
  return median(passes);
}

/// The probe's time on the machine the baselines were recorded on. Host
/// times are reported at this reference speed: measured seconds times
/// kProbeReferenceS over the probe time measured around them. The
/// shared host's speed drifts by tens of percent over minutes; the
/// probe moves with it, so the scaled times stay comparable.
constexpr double kProbeReferenceS = 0.028;

/// Peak resident memory of the process, less the probe's table (probed
/// before the first simulation, so resident through every peak).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double probe_mb =
      static_cast<double>(kProbeTableWords * sizeof(std::uint64_t)) / 1048576.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0 - probe_mb;  // KiB -> MiB
}

struct SetupTimes {
  double setup_s = 0.0;  // medians
  double build_s = 0.0;
  double make_s = 0.0;
  int samples = 0;
};

/// Sets one flow set up repeatedly (at least 5 times, then on while the
/// set-ups fit in `budget_s`, up to 1000) and reports medians.
SetupTimes measure_setup(const Workload& w, std::uint64_t seed,
                         double budget_s) {
  std::vector<double> total, build, make;
  const std::int64_t start = now_ns();
  while (total.size() < 5 ||
         (total.size() < 1000 && seconds_since(start) < budget_s)) {
    const std::int64_t t = now_ns();
    auto inst = std::make_unique<Instance>(w, seed);
    total.push_back(seconds_since(t));
    build.push_back(inst->build_s);
    make.push_back(inst->make_s);
  }
  return {median(total), median(build), median(make),
          static_cast<int>(total.size())};
}

/// Everything a result needs to be compared like for like.
Json fingerprint(const Args& a, const Workload& w, const FlowSetFacts& f) {
  Json machine;
  machine.u64("cores", std::thread::hardware_concurrency())
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("rev", a.rev);
  Json load;
  load.str("stack", w.stack)
      .str("topology", w.scenario.topology.name)
      .str("flow_set", w.scenario.workload.name)
      .u64("seed", a.seed)
      .u64("trials", static_cast<std::uint64_t>(w.trials))
      .u64("flows", f.flows)
      .u64("total_bytes", static_cast<std::uint64_t>(f.total_bytes))
      .u64("largest_flow_bytes", static_cast<std::uint64_t>(f.largest_bytes));
  Json fp;
  fp.obj("machine", machine).obj("workload", load);
  return fp;
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Outcome& o) {
    attempted += o.scheduled;
    failed += o.failed + (o.scheduled - std::min(o.scheduled, o.reported));
  }
};

/// Host seconds measured between two speed probes, and the same time at
/// the probe's reference speed.
struct HostTime {
  double raw_s = 0.0;
  double scaled_s = 0.0;
};

/// One repetition: every trial's flow set, set up and simulated in turn.
/// Returns the pooled outcome. `run` gets the seconds spent inside
/// run_prepared, summed over the trials, each trial scaled by the probes
/// taken just before and after it; `probes` gets those probes.
Outcome repetition(const Workload& w, std::uint64_t seed, HostTime& run,
                   std::vector<double>& probes, FlowSetFacts& facts) {
  OutcomeFold fold;
  run = {};
  facts = {};
  if (probes.empty()) probes.push_back(speed_probe_s());
  for (int t = 0; t < w.trials; ++t) {
    auto inst = std::make_unique<Instance>(w, trial_seed(seed, t));
    h::RunResult r;
    const double s = inst->run(*inst->stack, r);
    const double before = probes.back();
    probes.push_back(speed_probe_s());
    run.raw_s += s;
    run.scaled_s += s * kProbeReferenceS / (0.5 * (before + probes.back()));
    fold.add(r, inst->flows.size());
    const FlowSetFacts f = flow_set_facts(inst->flows, w.scenario.options);
    facts.flows += f.flows;
    facts.total_bytes += f.total_bytes;
    facts.largest_bytes = std::max(facts.largest_bytes, f.largest_bytes);
    facts.fluid_eligible += f.fluid_eligible;
  }
  return fold.outcome();
}

/// Nine tenths of the budget go to simulations, the rest to set-ups.
constexpr double kRunShare = 0.9;

/// --trace 0: end-to-end metrics.
Json end_to_end(const Args& a, const Workload& w, Checks& checks,
                Totals& totals, FlowSetFacts& facts) {
  const std::int64_t start = now_ns();
  std::vector<double> raw_s, run_s;  // run_s: at the probe's reference speed
  std::vector<double> probe_s;
  Outcome first;
  double rep_wall_s = 0.0;
  while (run_s.empty() ||
         seconds_since(start) + rep_wall_s <= kRunShare * a.seconds) {
    const std::int64_t rep_start = now_ns();
    HostTime t;
    const Outcome o = repetition(w, a.seed, t, probe_s, facts);
    raw_s.push_back(t.raw_s);
    run_s.push_back(t.scaled_s);
    checks.conserve(o, "repetition");
    if (run_s.size() == 1) {
      first = o;
    } else {
      checks.same(o, first, label("repetition", run_s.size()));
    }
    totals.add(o);
    rep_wall_s = std::max(rep_wall_s, seconds_since(rep_start));
  }
  const double rss_mb = peak_rss_mb();
  const SetupTimes setup =
      measure_setup(w, a.seed, (1.0 - kRunShare) * a.seconds);

  const double speed = kProbeReferenceS / median(probe_s);
  Json m;
  m.num("setup_s", setup.setup_s * speed)
      .num("run_s", median(run_s))
      .num("peak_rss_mb", rss_mb)
      .num("mean_fct_ms", first.mean_fct_ms)
      .num("p99_fct_ms", first.p99_fct_ms)
      .num("app_throughput_pct", first.app_throughput_pct)
      .num("flows_failed",
           first.scheduled == 0 ? 0.0
                                : static_cast<double>(first.failed) /
                                      static_cast<double>(first.scheduled));
  Json detail;
  detail.u64("setup_samples", static_cast<std::uint64_t>(setup.samples))
      .u64("run_repetitions", run_s.size())
      .num("run_s_min", *std::min_element(run_s.begin(), run_s.end()))
      .num("run_s_max", *std::max_element(run_s.begin(), run_s.end()))
      .num("run_s_unscaled", median(raw_s))
      .num("setup_s_unscaled", setup.setup_s)
      .num("probe_s", median(probe_s))
      .u64("sim_events", first.events)
      .u64("flows_completed", first.completed)
      .u64("flows_terminated", first.terminated)
      .u64("flows_failed", first.failed)
      .str("digest", std::to_string(first.digest));
  Json out;
  out.obj("metrics", m).obj("detail", detail);
  return out;
}

/// --trace 1: per-layer metrics from alternating untraced and traced
/// simulations of trial 0's flow set.
Json per_layer(const Args& a, const Workload& w, Checks& checks,
               Totals& totals, FlowSetFacts& facts) {
  const std::int64_t start = now_ns();
  std::vector<double> plain_s, traced_s;
  Tracer tracer;  // accumulates over every traced simulation
  double traced_total_s = 0.0;
  Outcome first;
  h::EngineCounters engine;
  std::int64_t queue_drops = 0;
  double pair_wall_s = 0.0;
  while (plain_s.empty() ||
         seconds_since(start) + pair_wall_s <= kRunShare * a.seconds) {
    const std::int64_t pair_start = now_ns();
    {
      auto inst = std::make_unique<Instance>(w, a.seed);
      h::RunResult r;
      plain_s.push_back(inst->run(*inst->stack, r));
      OutcomeFold fold;
      fold.add(r, inst->flows.size());
      const Outcome o = fold.outcome();
      checks.conserve(o, "untraced");
      if (plain_s.size() == 1) {
        first = o;
        engine = r.engine;
        queue_drops = r.queue_drops;
        facts = flow_set_facts(inst->flows, w.scenario.options);
      } else {
        checks.same(o, first, label("untraced", plain_s.size()));
      }
      totals.add(o);
    }
    {
      auto inst = std::make_unique<Instance>(w, a.seed);
      TracingStack traced(std::move(inst->stack), tracer);
      h::RunResult r;
      traced_s.push_back(inst->run(traced, r));
      traced_total_s += traced_s.back();
      OutcomeFold fold;
      fold.add(r, inst->flows.size());
      const Outcome o = fold.outcome();
      checks.conserve(o, "traced");
      checks.same(o, first, label("traced", traced_s.size()));
      totals.add(o);
    }
    pair_wall_s = std::max(pair_wall_s, seconds_since(pair_start));
  }
  const SetupTimes setup =
      measure_setup(w, a.seed, (1.0 - kRunShare) * a.seconds);

  const double reps = static_cast<double>(traced_s.size());
  const double events = static_cast<double>(engine.events_executed);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto calls = [&](Layer l) { return count(tracer.stat(l).calls) / reps; };
  const auto ns = [&](Layer l) { return tracer.stat(l).ns_per_call(); };
  const auto self_s = [&](Layer l) {
    return static_cast<double>(tracer.stat(l).self_ns) * 1e-9;
  };
  const auto of_run = [&](double part_s) { return part_s / traced_total_s; };
  const double ctl_s = self_s(Layer::kCtlForward) +
                       self_s(Layer::kCtlReverse) + self_s(Layer::kCtlEnqueue);
  const double agent_s = self_s(Layer::kSenderPacket) +
                         self_s(Layer::kSenderStart) +
                         self_s(Layer::kReceiverPacket);
  const double residual_s =
      traced_total_s - static_cast<double>(tracer.covered_ns()) * 1e-9;
  const double ctl_packets =
      calls(Layer::kCtlForward) + calls(Layer::kCtlReverse);
  const double sent = static_cast<double>(tracer.packets_sent);

  Json m;
  m.num("sim.events", events)
      .num("sim.events_cancelled", count(engine.events_cancelled))
      .num("sim.peak_pending", count(engine.peak_pending_events))
      .num("sim.ns_per_event", median(plain_s) * 1e9 / events)
      .num("net.build_s", setup.build_s)
      .num("net.events_coalesced", count(engine.events_coalesced))
      .num("net.packet_acquires", count(engine.packet_acquires))
      .num("net.pool_highwater", count(engine.pool_highwater))
      .num("net.queue_drops", static_cast<double>(queue_drops))
      .num("workload.make_s", setup.make_s)
      .num("ctl.on_forward.calls", calls(Layer::kCtlForward))
      .num("ctl.on_forward.ns", ns(Layer::kCtlForward))
      .num("ctl.on_reverse.calls", calls(Layer::kCtlReverse))
      .num("ctl.on_reverse.ns", ns(Layer::kCtlReverse))
      .num("ctl.on_enqueue.calls", calls(Layer::kCtlEnqueue))
      .num("ctl.on_enqueue.ns", ns(Layer::kCtlEnqueue))
      .num("ctl.share", of_run(ctl_s))
      .num("core.scans_per_packet",
           ctl_packets > 0.0 ? count(engine.flowlist_scan_ops) / ctl_packets
                             : 0.0)
      .num("sender.on_packet.calls", calls(Layer::kSenderPacket))
      .num("sender.on_packet.ns", ns(Layer::kSenderPacket))
      .num("receiver.on_packet.calls", calls(Layer::kReceiverPacket))
      .num("receiver.on_packet.ns", ns(Layer::kReceiverPacket))
      .num("sender.start.ns", ns(Layer::kSenderStart))
      .num("agent.share", of_run(agent_s))
      .num("agent.peak_flow_bytes", count(engine.peak_flow_bytes))
      .num("agent.useful_send_ratio",
           sent > 0.0 ? 1.0 - static_cast<double>(tracer.retransmissions) / sent
                      : 1.0)
      .num("harness.residual_ns_per_event", residual_s * 1e9 / reps / events)
      .num("harness.residual_share", of_run(residual_s))
      .num("hybrid.fluid_share",
           facts.flows == 0 ? 0.0
                            : count(facts.fluid_eligible) / count(facts.flows))
      .num("trace.overhead", median(traced_s) / median(plain_s) - 1.0);
  Json detail;
  detail.u64("setup_samples", static_cast<std::uint64_t>(setup.samples))
      .u64("traced_pairs", traced_s.size())
      .num("run_s_untraced", median(plain_s))
      .num("run_s_traced", median(traced_s))
      .str("digest", std::to_string(first.digest));
  Json out;
  out.obj("metrics", m).obj("detail", detail);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const std::optional<Workload> w = make_workload(a.workload);
  if (!w) usage("unknown workload " + a.workload);

  Checks checks;
  Totals totals;
  FlowSetFacts facts;
  const Json body = a.trace ? per_layer(a, *w, checks, totals, facts)
                            : end_to_end(a, *w, checks, totals, facts);
  Json out;
  out.str("workload", w->name)
      .boolean("correct", checks.ok())
      .u64("attempted", totals.attempted)
      .u64("failed", totals.failed)
      .str("check_failures", checks.failures())
      .obj("fingerprint", fingerprint(a, *w, facts))
      .obj("result", body);
  std::printf("%s\n", out.text().c_str());
  return checks.ok() ? 0 : 1;
}
