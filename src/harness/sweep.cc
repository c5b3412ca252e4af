#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "harness/timeline.h"
#include "net/packet_pool.h"

namespace pdq::harness {

double SweepResults::mean(std::size_t point, std::size_t column) const {
  const auto& cell = samples[point][column];
  if (cell.empty()) return 0.0;
  double total = 0;
  for (double v : cell) total += v;
  return total / static_cast<double>(cell.size());
}

std::vector<std::vector<double>> SweepResults::means() const {
  std::vector<std::vector<double>> out(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    out[p].reserve(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      out[p].push_back(mean(p, c));
    }
  }
  return out;
}

int SweepResults::column_index(const std::string& label) const {
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (columns[c] == label) return static_cast<int>(c);
  }
  return -1;
}

SweepRunner::SweepRunner(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

SweepRunner::SampleRun SweepRunner::run_sample(const Scenario& scenario,
                                               const std::string& stack,
                                               const StackOptions& options,
                                               std::uint64_t seed) {
  // Each sample is a fully isolated simulation: own packet pool, own
  // kernel, own topology (seeded for ECMP), own workload RNG. The cold
  // ScopedPool makes the engine counters deterministic for any thread
  // count; it must outlive the simulator (pending events at the horizon
  // may still hold packets), hence the declaration order.
  net::PacketPool pool;
  net::PacketPool::ScopedPool scope(pool);
  sim::Simulator simulator;
  net::Topology topo(simulator, seed);
  const std::vector<net::NodeId> servers = scenario.topology.build(topo);
  sim::Rng rng(seed);
  SampleRun run;
  run.flows = scenario.workload.make(servers, rng);

  std::string error;
  auto s = StackRegistry::global().make(stack, options, &error);
  if (s == nullptr) {
    std::fprintf(stderr, "SweepRunner: %s\n", error.c_str());
    std::exit(2);
  }
  RunOptions opts = scenario.options;
  opts.seed = seed;
  run.result = run_prepared(*s, simulator, topo, run.flows, opts);
  return run;
}

double SweepRunner::evaluate(const Scenario& scenario, const Column& column,
                             std::uint64_t seed, const MetricFn& fallback,
                             const std::string& point_label, int trial) {
  if (column.evaluate) return column.evaluate(scenario, seed);

  RunContext ctx;
  ctx.scenario = &scenario;
  ctx.point = point_label;
  ctx.seed = seed;
  ctx.trial = trial;

  const MetricFn& metric = column.metric ? column.metric : fallback;
  assert(metric && "column has no metric and no spec default");

  if (column.stack.empty()) {
    // Analytic column: fluid model on the flow set alone, no packets.
    sim::Simulator simulator;
    net::Topology topo(simulator, seed);
    const std::vector<net::NodeId> servers = scenario.topology.build(topo);
    sim::Rng rng(seed);
    const std::vector<net::FlowSpec> flows =
        scenario.workload.make(servers, rng);
    ctx.flows = &flows;
    return metric(ctx);
  }

  const SampleRun run =
      run_sample(scenario, column.stack, column.options, seed);
  ctx.flows = &run.flows;
  ctx.result = &run.result;
  ctx.stack = StackRegistry::global().resolve(column.stack);
  return metric(ctx);
}

namespace {

/// Fails fast — on the calling thread, before any pool is spawned — when
/// a column can never evaluate: unknown registry stack, or no metric
/// anywhere. Workers must never exit the process mid-simulation.
void validate_column(const Column& column, const MetricFn& fallback) {
  if (column.evaluate) return;
  if (!column.metric && !fallback) {
    std::fprintf(stderr,
                 "SweepRunner: column \"%s\" has no metric and no spec "
                 "default\n",
                 column.label.c_str());
    std::exit(2);
  }
  if (!column.stack.empty() &&
      !StackRegistry::global().contains(column.stack)) {
    std::fprintf(
        stderr, "SweepRunner: column \"%s\": unknown stack \"%s\"; "
        "available: %s\n",
        column.label.c_str(), column.stack.c_str(),
        StackRegistry::global().available().c_str());
    std::exit(2);
  }
}

/// Runs `jobs` closures indexed 0..n-1 over `threads` workers. Inline
/// when a single worker suffices (exact same arithmetic either way).
void run_pool(int threads, std::size_t n,
              const std::function<void(std::size_t)>& job) {
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) job(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        job(i);
      }
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace

SweepResults SweepRunner::run(const ExperimentSpec& spec) const {
  SweepResults results;
  results.name = spec.name;
  results.title = spec.title;
  results.axis = spec.axis;
  results.metric = spec.metric.name;
  results.base_seed = spec.base_seed;
  for (const auto& c : spec.columns) results.columns.push_back(c.label);
  for (const auto& p : spec.points) results.points.push_back(p.label);
  for (int t = 0; t < spec.trials; ++t) {
    results.seeds.push_back(trial_seed(spec.base_seed, t));
  }

  const std::size_t num_points = spec.points.size();
  const std::size_t num_cols = spec.columns.size();
  const std::size_t num_trials = static_cast<std::size_t>(spec.trials);
  results.samples.assign(
      num_points, std::vector<std::vector<double>>(
                      num_cols, std::vector<double>(num_trials, 0.0)));

  // Materialize per-point scenarios and per-(point, column) columns once,
  // up front — the worker loop then only reads shared state.
  std::vector<Scenario> scenarios;
  scenarios.reserve(num_points);
  std::vector<std::vector<Column>> columns(num_points);
  for (std::size_t p = 0; p < num_points; ++p) {
    Scenario s = spec.base;
    if (spec.points[p].apply) spec.points[p].apply(s);
    // After apply: points that replace the scenario wholesale (fig13's
    // topology ladder) still run in streaming mode.
    if (spec.streaming_metrics != nullptr) {
      s.options.streaming = spec.streaming_metrics;
    }
    if (spec.hybrid_backend != nullptr) {
      s.options.hybrid = spec.hybrid_backend;
    }
    if (spec.fault_plane != nullptr) {
      s.options.faults = spec.fault_plane;
    }
    scenarios.push_back(std::move(s));
    columns[p].reserve(num_cols);
    for (std::size_t c = 0; c < num_cols; ++c) {
      Column col = spec.columns[c];
      if (spec.points[p].tune) spec.points[p].tune(col);
      validate_column(col, spec.metric.fn);  // fail fast, pre-pool
      columns[p].push_back(std::move(col));
    }
  }

  const std::size_t total = num_points * num_cols * num_trials;
  run_pool(threads_, total, [&](std::size_t i) {
    const std::size_t p = i / (num_cols * num_trials);
    const std::size_t c = (i / num_trials) % num_cols;
    const int t = static_cast<int>(i % num_trials);
    results.samples[p][c][static_cast<std::size_t>(t)] =
        evaluate(scenarios[p], columns[p][c], trial_seed(spec.base_seed, t),
                 spec.metric.fn, spec.points[p].label, t);
  });
  return results;
}

std::vector<double> SweepRunner::samples(const Scenario& scenario,
                                         const Column& column, int trials,
                                         std::uint64_t base_seed,
                                         const MetricFn& fallback) const {
  validate_column(column, fallback);  // fail fast, pre-pool
  std::vector<double> out(static_cast<std::size_t>(trials), 0.0);
  run_pool(threads_, out.size(), [&](std::size_t t) {
    out[t] = evaluate(scenario, column, base_seed + kTrialSeedStride * t,
                      fallback, "", static_cast<int>(t));
  });
  return out;
}

double SweepRunner::average(const Scenario& scenario, const Column& column,
                            int trials, std::uint64_t base_seed,
                            const MetricFn& fallback) const {
  const auto values = samples(scenario, column, trials, base_seed, fallback);
  double total = 0;
  for (double v : values) total += v;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

stats::RunStats SweepRunner::merged_streaming(
    const Scenario& scenario, const std::string& stack,
    const StackOptions& options, int trials,
    const stats::StreamingSpec& stream_spec, std::uint64_t base_seed) const {
  Scenario sc = scenario;
  sc.options.streaming =
      std::make_shared<const stats::StreamingSpec>(stream_spec);
  // One accumulator per trial slot, merged sequentially in trial order
  // below — determinism does not depend on worker interleaving.
  std::vector<std::shared_ptr<const stats::RunStats>> per_trial(
      static_cast<std::size_t>(trials));
  run_pool(threads_, per_trial.size(), [&](std::size_t t) {
    const SampleRun run =
        run_sample(sc, stack, options, base_seed + kTrialSeedStride * t);
    per_trial[t] = run.result.streaming;
  });
  // The merged window comes from the scenario's timeline, exactly as
  // run_prepared derives it for each trial.
  sim::Time lo = 0;
  sim::Time hi = sim::kTimeInfinity;
  if (sc.options.timeline != nullptr) {
    lo = sc.options.timeline->warmup;
    hi = sc.options.timeline->measure_end;
  }
  stats::RunStats merged(stream_spec, lo, hi);
  for (const auto& s : per_trial) {
    assert(s != nullptr);
    merged.merge(*s);
  }
  return merged;
}

}  // namespace pdq::harness
