#include "harness/scenario.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <unordered_map>

#include "faults/fault_plane.h"
#include "flowsim/flowsim.h"
#include "harness/timeline.h"
#include "net/node.h"
#include "net/packet_pool.h"
#include "stats/streaming.h"

namespace pdq::harness {

double RunResult::mean_fct_ms() const {
  if (streaming != nullptr) return streaming->mean_fct_ms();
  // Compensated, like the streaming accumulator: both paths produce the
  // correctly-rounded sum, so streaming==vector holds exactly.
  stats::CompensatedSum sum;
  std::size_t n = 0;
  for (const auto& f : flows) {
    if (f.outcome == net::FlowOutcome::kCompleted) {
      sum.add(sim::to_millis(f.completion_time()));
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum.value() / static_cast<double>(n);
}

double RunResult::max_fct_ms() const {
  if (streaming != nullptr) return streaming->max_fct_ms();
  double m = 0;
  for (const auto& f : flows) {
    if (f.outcome == net::FlowOutcome::kCompleted)
      m = std::max(m, sim::to_millis(f.completion_time()));
  }
  return m;
}

double RunResult::application_throughput() const {
  if (streaming != nullptr) return streaming->application_throughput();
  std::size_t deadline_flows = 0;
  std::size_t met = 0;
  for (const auto& f : flows) {
    if (!f.spec.has_deadline()) continue;
    ++deadline_flows;
    if (f.deadline_met()) ++met;
  }
  if (deadline_flows == 0) return 100.0;
  return 100.0 * static_cast<double>(met) /
         static_cast<double>(deadline_flows);
}

std::size_t RunResult::completed() const {
  if (streaming != nullptr) return streaming->completed();
  std::size_t n = 0;
  for (const auto& f : flows)
    if (f.outcome == net::FlowOutcome::kCompleted) ++n;
  return n;
}

const net::FlowResult* RunResult::flow(net::FlowId id) const {
  for (const auto& f : flows)
    if (f.spec.id == id) return &f;
  return nullptr;
}

RunResult run_scenario(ProtocolStack& stack, const TopologyBuilder& build,
                       const std::vector<net::FlowSpec>& flows,
                       const RunOptions& opts) {
  sim::Simulator simulator;
  net::Topology topo(simulator, opts.seed);
  build(topo);
  return run_prepared(stack, simulator, topo, flows, opts);
}

RunResult run_prepared(ProtocolStack& stack, sim::Simulator& simulator,
                       net::Topology& topo,
                       const std::vector<net::FlowSpec>& flows,
                       const RunOptions& opts) {
  stack.install(topo);

  RunResult result;
  result.meter_bin = opts.meter_bin;

  // Instrumentation on the watched link.
  std::unique_ptr<sim::RateMeter> meter;
  if (opts.watch_link) {
    const auto [a, b] = *opts.watch_link;
    net::Port* port = topo.port_on_link(a, b);
    assert(port != nullptr);
    meter = std::make_unique<sim::RateMeter>(opts.meter_bin,
                                             port->link().rate_bps);
    port->meter = meter.get();
    port->queue_series = &result.queue_series;
    if (opts.watch_link_drop_rate > 0.0) {
      topo.set_link_drop_rate(a, b, opts.watch_link_drop_rate);
    }
  }

  // Per-flow agent storage. The default path materializes all agents up
  // front (the historical behaviour, byte-for-byte); streaming mode
  // (opts.streaming) defers construction to each flow's start event and
  // retires agents as flows terminate, so live agent memory tracks the
  // number of *active* flows rather than the total (the 100k-flow scale
  // points; docs/architecture.md "Streaming metrics & memory model").
  struct FlowSlot {
    std::unique_ptr<net::Agent> receiver;
    std::unique_ptr<net::Agent> sender;
    std::size_t receiver_bytes = 0;  // footprint charged at materialize
    std::size_t sender_bytes = 0;
    bool sender_done = false;  // on_done ran; stats folded in
  };
  std::vector<FlowSlot> slots;
  std::vector<net::Agent*> senders;  // null: unmaterialized or retired
  // Parallel to `senders`, for timeline link-failure rerouting: the
  // flow's spec and its *current* route (updated on reroute).
  std::vector<net::FlowSpec> sender_specs;
  std::vector<net::RouteRef> sender_routes;
  // Flows injected while a link outage disconnects their endpoints are
  // stillborn: recorded terminated-at-injection, no agents built.
  std::vector<net::FlowResult> stillborn;
  std::size_t remaining = 0;  // incremented per add_flow
  // Timeline events still to fire; the run must not stop before the
  // last one (it may inject flows). Zero when there is no timeline.
  std::size_t timeline_pending = 0;
  // Checked after every decrement of either count: the run is over once
  // no flow is unfinished and no timeline event is left to inject more.
  const auto stop_if_drained = [&] {
    if (remaining == 0 && timeline_pending == 0) simulator.stop();
  };

  const bool streaming = opts.streaming != nullptr;
  if (streaming && opts.per_flow_series) {
    std::fprintf(stderr,
                 "run_prepared: per-flow goodput series "
                 "(RunOptions::per_flow_series) cannot run in "
                 "streaming-metrics mode (RunOptions::streaming) — the "
                 "sampler reads every flow's sender for the whole run, "
                 "and streaming builds senders late and retires them\n");
    std::exit(2);
  }
  // Loss hardening rides with the fault plane (FaultSpec::
  // harden_protocols): the TERM-retry timer schedules events, which
  // would shift sequence numbers on the byte-identical golden path.
  // Run-scoped, carried by the topology so per-agent state stays at
  // the golden sizeof (peak_flow_bytes).
  topo.set_loss_hardening(opts.faults != nullptr &&
                          opts.faults->harden_protocols);
  // Audit resolution: an explicit spec wins; a fault plane auto-enables
  // the defaults (fault runs should fail loudly, not hang); otherwise
  // fully off — no events scheduled, nothing drawn.
  std::shared_ptr<const AuditSpec> audit = opts.audit;
  if (audit == nullptr && opts.faults != nullptr) {
    audit = std::make_shared<AuditSpec>();
  }
  const bool hybrid = opts.hybrid != nullptr;
  if (hybrid && !streaming) {
    std::fprintf(stderr,
                 "run_prepared: the hybrid packet/fluid backend requires "
                 "streaming-metrics mode (RunOptions::streaming) — per-flow "
                 "result vectors would defeat its O(active-flows) memory\n");
    std::exit(2);
  }

  // ---- hybrid packet/fluid fast-forward state (opts.hybrid) ----
  // Eligible flows live in three segments: a packet head (admission +
  // ramp-up), a fluid middle on the S5.5 model's grid, and a packet tail
  // (the last ~2 RTTs: TERM handshake, completion). `phase` tracks where
  // each slot is; `hyb_seg` is the size the *current* packet segment
  // materializes with; `hyb_done` accumulates bytes delivered by earlier
  // segments so folded FlowResults describe the whole flow. The tail
  // attaches under a *derived* FlowId (`attach_id`): the head's id must
  // not be reused, or a head-segment packet still queued somewhere in
  // the fabric (a TERM delayed behind a congested NIC longer than the
  // fluid middle lasts) would be delivered to the tail's agents — a
  // stale TERM marks the live tail receiver retirable, the sweep frees
  // it, and the tail sender then stalls forever (and, under PDQ, its
  // ghost allocation starves every flow sharing its hosts). With a
  // fresh id, stragglers addressed to the head find no agent and drop
  // silently (node.cc).
  enum class HybridPhase : std::uint8_t { kNone, kHead, kFluid, kTail };
  constexpr net::FlowId kHybridTailIdOffset = net::FlowId{1} << 40;
  std::vector<HybridPhase> phase;
  std::vector<std::int64_t> hyb_seg;
  std::vector<std::int64_t> hyb_done;
  std::vector<net::FlowId> attach_id;  // id the current segment attaches as
  std::unique_ptr<flowsim::FlowLevelSimulator> fluid;
  std::unordered_map<net::FlowId, std::size_t> fluid_slot;
  std::int64_t hyb_head = 0, hyb_tail = 0, hyb_min = 0;
  if (hybrid) {
    hyb_head = std::max<std::int64_t>(opts.hybrid->head_bytes, 1);
    hyb_tail = std::max<std::int64_t>(opts.hybrid->tail_bytes, 1);
    hyb_min = std::max(opts.hybrid->min_fluid_bytes, hyb_head + hyb_tail + 1);
    flowsim::Model model = flowsim::Model::kRcp;
    if (opts.hybrid->model.has_value()) {
      model = *opts.hybrid->model;
    } else {
      const std::string n = stack.name();
      if (n.rfind("PDQ", 0) == 0 || n.rfind("M-PDQ", 0) == 0) {
        model = flowsim::Model::kPdq;
      } else if (n.rfind("D3", 0) == 0) {
        model = flowsim::Model::kD3;
      }
    }
    flowsim::Options fo;
    fo.model = model;
    fo.step = opts.hybrid->grid;
    fo.horizon = opts.horizon;
    fluid = std::make_unique<flowsim::FlowLevelSimulator>(topo, fo);
  }
  const auto hyb_eligible = [&](const net::FlowSpec& f) {
    // Deadline flows never leave the packet engine: quenching/Early
    // Termination and Application Throughput stay exact.
    return hybrid && !f.has_deadline() && f.size_bytes >= hyb_min;
  };
  // Measurement window for the windowed streaming metrics — the same
  // [warmup, measure_end) the vector path's metrics:: family derives
  // from the timeline (whole run when there is none).
  sim::Time window_lo = 0;
  sim::Time window_hi = sim::kTimeInfinity;
  if (opts.timeline != nullptr) {
    window_lo = opts.timeline->warmup;
    window_hi = opts.timeline->measure_end;
  }
  std::shared_ptr<stats::RunStats> run_stats;
  if (streaming) {
    run_stats = std::make_shared<stats::RunStats>(*opts.streaming,
                                                  window_lo, window_hi);
  }
  // Live agent-footprint accounting (both modes — the counter is how
  // the scale benches show streaming keeps agent memory O(active)).
  std::size_t cur_flow_bytes = 0;
  std::size_t peak_flow_bytes = 0;

  // Retirement machinery (streaming only). Terminated flows enqueue
  // their slot index; a zero-delay, coalesced sweep event destroys
  // every retirable agent *outside* the reporting agent's call frame
  // (on_done fires inside agent methods — freeing there would be a
  // use-after-free on return).
  std::vector<std::size_t> retire_ready;
  bool sweep_scheduled = false;
  std::function<void()> do_sweep;
  const auto schedule_sweep = [&] {
    if (sweep_scheduled) return;
    sweep_scheduled = true;
    // EventFn captures are capped: capture one pointer to the sweep
    // closure rather than the sweep state itself.
    simulator.schedule_in(0, [&do_sweep] { do_sweep(); });
  };
  do_sweep = [&] {
    sweep_scheduled = false;
    for (std::size_t k = 0; k < retire_ready.size(); ++k) {
      const std::size_t idx = retire_ready[k];
      FlowSlot& slot = slots[idx];
      const net::FlowSpec& spec = sender_specs[idx];
      // Hybrid tails attach under a derived id — detach what was
      // attached, not the whole-flow spec's id.
      const net::FlowId aid = hybrid ? attach_id[idx] : spec.id;
      if (slot.sender != nullptr && slot.sender_done &&
          slot.sender->retirable()) {
        slot.sender->quiesce();
        topo.host(spec.src).detach_sender(aid);
        cur_flow_bytes -= slot.sender_bytes;
        senders[idx] = nullptr;
        sender_routes[idx] = nullptr;
        slot.sender.reset();
      }
      if (slot.receiver != nullptr && slot.receiver->retirable()) {
        slot.receiver->quiesce();
        topo.host(spec.dst).detach_receiver(aid);
        cur_flow_bytes -= slot.receiver_bytes;
        slot.receiver.reset();
      }
    }
    retire_ready.clear();
  };

  // Hybrid segment completions route through here instead of the plain
  // streaming fold (assigned after the helpers below; declared first so
  // materialize's on_done closure can reference it).
  std::function<void(std::size_t, const net::FlowResult&)> hybrid_segment_done;

  // Builds and attaches the agent pair for flow slot `idx`. The default
  // path calls this at set-up, in add order (and from add_flow for
  // timeline injections) — construction order, route-cache fills and
  // the event sequence all identical to the historical code; streaming
  // mode calls it from the flow's start event. Hybrid flows materialize
  // with their current packet-segment size (head or tail) in place of
  // the full flow size.
  std::function<void(std::size_t)> materialize = [&](std::size_t idx) {
    net::FlowSpec f = sender_specs[idx];
    if (hybrid && phase[idx] != HybridPhase::kNone) {
      f.size_bytes = hyb_seg[idx];
      f.id = attach_id[idx];
    }
    if (streaming && topo.shortest_paths(f.src, f.dst).empty()) {
      // Deferred construction can land inside a link outage the default
      // path would have handled via reroute (agents built before the
      // failure): record the flow terminated-at-start.
      net::FlowResult r;
      r.spec = sender_specs[idx];
      r.outcome = net::FlowOutcome::kTerminated;
      r.finish_time = simulator.now();
      if (hybrid) r.bytes_acked = hyb_done[idx];
      run_stats->add(r, simulator.now());
      slots[idx].sender_done = true;
      --remaining;
      stop_if_drained();
      return;
    }

    net::AgentContext rctx;
    rctx.topo = &topo;
    rctx.local = &topo.host(f.dst);
    rctx.spec = f;
    if (streaming) {
      // Receivers that can prove they are done (EchoReceiver after the
      // TERM echo) notify here so the sweep can retire them.
      rctx.on_done = [&retire_ready, &schedule_sweep,
                      idx](const net::FlowResult&) {
        retire_ready.push_back(idx);
        schedule_sweep();
      };
    }
    auto receiver = stack.make_receiver(std::move(rctx));
    topo.host(f.dst).attach_receiver(f.id, receiver.get());

    net::AgentContext sctx;
    sctx.topo = &topo;
    sctx.local = &topo.host(f.src);
    sctx.spec = f;
    sctx.route = topo.ecmp_route(f.id, f.src, f.dst);
    if (streaming) {
      sctx.on_done = [&, idx](const net::FlowResult& r) {
        if (hybrid && phase[idx] != HybridPhase::kNone) {
          hybrid_segment_done(idx, r);
          return;
        }
        run_stats->add(r, simulator.now());
        slots[idx].sender_done = true;
        retire_ready.push_back(idx);
        schedule_sweep();
        --remaining;
        stop_if_drained();
      };
    } else {
      sctx.on_done = [&remaining, &stop_if_drained](const net::FlowResult&) {
        --remaining;
        stop_if_drained();
      };
    }
    sender_routes[idx] = sctx.route;
    auto sender = stack.make_sender(std::move(sctx));
    topo.host(f.src).attach_sender(f.id, sender.get());
    senders[idx] = sender.get();

    FlowSlot& slot = slots[idx];
    slot.receiver_bytes = receiver->footprint_bytes();
    slot.sender_bytes = sender->footprint_bytes();
    cur_flow_bytes += slot.receiver_bytes + slot.sender_bytes;
    if (cur_flow_bytes > peak_flow_bytes) peak_flow_bytes = cur_flow_bytes;
    slot.receiver = std::move(receiver);
    slot.sender = std::move(sender);
  };

  // ---- hybrid handoff helpers ----
  // Folds a whole-flow result: the one place hybrid flows finish.
  const auto finish_flow_fold = [&](std::size_t idx,
                                    const net::FlowResult& r) {
    run_stats->add(r, simulator.now());
    slots[idx].sender_done = true;
    retire_ready.push_back(idx);
    schedule_sweep();
    --remaining;
    stop_if_drained();
  };
  // Force-releases whatever head-segment agents are still attached
  // before the tail segment re-attaches under the same FlowId. The
  // retirement sweep normally got them already; stacks whose receivers
  // never self-retire (TCP family) leave one behind.
  const auto release_agents = [&](std::size_t idx) {
    FlowSlot& slot = slots[idx];
    const net::FlowSpec& spec = sender_specs[idx];
    const net::FlowId aid = attach_id[idx];
    if (slot.sender != nullptr) {
      slot.sender->quiesce();
      topo.host(spec.src).detach_sender(aid);
      cur_flow_bytes -= slot.sender_bytes;
      senders[idx] = nullptr;
      sender_routes[idx] = nullptr;
      slot.sender.reset();
    }
    if (slot.receiver != nullptr) {
      slot.receiver->quiesce();
      topo.host(spec.dst).detach_receiver(aid);
      cur_flow_bytes -= slot.receiver_bytes;
      slot.receiver.reset();
    }
  };
  // The fluid grid tick: one pending event at a time, re-armed while
  // the fluid model holds live flows.
  std::function<void()> fluid_tick;
  bool fluid_tick_pending = false;
  const auto arm_fluid_tick = [&] {
    if (fluid_tick_pending) return;
    fluid_tick_pending = true;
    simulator.schedule_in(opts.hybrid->grid, [&fluid_tick] { fluid_tick(); });
  };
  // Fluid middle finished: start the packet tail (or fold a fluid
  // termination — a failure timeline cut the path).
  const auto start_tail = [&](std::size_t idx,
                              const flowsim::FlowLevelSimulator::Completion&
                                  c) {
    if (c.result.outcome != net::FlowOutcome::kCompleted) {
      net::FlowResult full;
      full.spec = sender_specs[idx];
      full.outcome = net::FlowOutcome::kTerminated;
      full.finish_time = c.result.finish_time;
      full.bytes_acked = hyb_done[idx] + c.result.bytes_acked;
      finish_flow_fold(idx, full);
      return;
    }
    hyb_done[idx] += c.result.bytes_acked;
    phase[idx] = HybridPhase::kTail;
    hyb_seg[idx] = hyb_tail;
    release_agents(idx);
    attach_id[idx] = sender_specs[idx].id + kHybridTailIdOffset;
    slots[idx].sender_done = false;
    materialize(idx);
    if (senders[idx] != nullptr) {
      // Resume at the fluid equilibrium rate instead of re-ramping
      // (seed_rate applies only if on_start() granted nothing).
      senders[idx]->start();
      senders[idx]->seed_rate(c.last_rate_bps);
    }
  };
  fluid_tick = [&] {
    fluid_tick_pending = false;
    fluid->advance(simulator.now());
    for (const auto& c : fluid->drain_completions()) {
      const auto it = fluid_slot.find(c.result.spec.id);
      assert(it != fluid_slot.end());
      const std::size_t idx = it->second;
      fluid_slot.erase(it);
      start_tail(idx, c);
    }
    if (fluid->active_flows() > 0) arm_fluid_tick();
  };
  hybrid_segment_done = [&](std::size_t idx, const net::FlowResult& r) {
    const net::FlowSpec& orig = sender_specs[idx];
    if (phase[idx] == HybridPhase::kHead &&
        r.outcome == net::FlowOutcome::kCompleted) {
      // Head done: hand the middle to the fluid model, seeded with the
      // sender's last granted rate (established — no 2-RTT ramp).
      const double seed = senders[idx]->handoff_rate_bps();
      hyb_done[idx] = r.bytes_acked;
      phase[idx] = HybridPhase::kFluid;
      // Head agents are spent; retire them without folding stats.
      slots[idx].sender_done = true;
      retire_ready.push_back(idx);
      schedule_sweep();
      net::FlowSpec mid = orig;
      mid.start_time = simulator.now();
      const double mid_bits =
          static_cast<double>(orig.size_bytes - hyb_head - hyb_tail) * 8.0;
      fluid_slot[orig.id] = idx;
      fluid->add_flow(mid, mid_bits, seed);
      arm_fluid_tick();
      return;
    }
    // Tail completion — or a segment terminated by a failure timeline:
    // either way the whole flow is finished; rewrite the segment result
    // to the whole-flow view.
    net::FlowResult full = r;
    full.spec = orig;
    full.bytes_acked = r.bytes_acked + hyb_done[idx];
    finish_flow_fold(idx, full);
  };

  // Appends the bookkeeping slot for one flow; scheduling is separate
  // so the initial flow set can chain its start events.
  const auto add_slot = [&](const net::FlowSpec& f) {
    assert(f.id != net::kInvalidFlow && f.src != f.dst);
    ++remaining;
    slots.emplace_back();
    senders.push_back(nullptr);
    sender_specs.push_back(f);
    sender_routes.push_back(nullptr);
    if (hybrid) {
      const bool h = hyb_eligible(f);
      phase.push_back(h ? HybridPhase::kHead : HybridPhase::kNone);
      hyb_seg.push_back(h ? hyb_head : 0);
      hyb_done.push_back(0);
      attach_id.push_back(f.id);
    }
    return slots.size() - 1;
  };
  const auto add_flow = [&](const net::FlowSpec& f) {
    const std::size_t idx = add_slot(f);
    if (streaming) {
      // One creation event replaces the one start event, 1:1, so the
      // event-sequence stream keeps the same shape as the default path.
      simulator.schedule_at(f.start_time, [&materialize, &senders, idx] {
        materialize(idx);
        if (senders[idx] != nullptr) senders[idx]->start();
      });
    } else {
      materialize(idx);
      simulator.schedule_at(f.start_time,
                            [a = senders[idx]] { a->start(); });
    }
  };

  // Initial flow set: every flow's start (default path) or creation
  // (streaming) event is *chained* — each one schedules its successor —
  // so the event queue holds the in-flight events, not one pending start
  // per flow (peak_pending would be O(total flows)). Each flow reserves
  // the sequence number its own schedule_at would have drawn, at the same
  // point in the stream: the default path still builds its agents up
  // front in add order, and a constructor that schedules or reserves
  // draws before its flow's reservation, as ever. Chained events carry
  // the vtime schedule_at would have stamped (the set-up clock), so every
  // (at, vtime, seq) key, and therefore every downstream event, is
  // unchanged.
  const sim::Time setup_now = simulator.now();
  std::vector<std::size_t> chain_order;   // slot indices, by (start, add)
  std::vector<std::uint64_t> chain_seqs;  // parallel to slots
  // Size the per-flow tables once: growing them by doubling leaves freed
  // buffers of several MB behind on the 100k-flow runs.
  slots.reserve(flows.size());
  senders.reserve(flows.size());
  sender_specs.reserve(flows.size());
  sender_routes.reserve(flows.size());
  chain_seqs.reserve(flows.size());
  if (hybrid) {
    phase.reserve(flows.size());
    hyb_seg.reserve(flows.size());
    hyb_done.reserve(flows.size());
    attach_id.reserve(flows.size());
  }
  for (const auto& f : flows) {
    const std::size_t idx = add_slot(f);
    if (!streaming) materialize(idx);
    chain_seqs.push_back(simulator.reserve_event_order());
  }
  chain_order.resize(flows.size());
  std::iota(chain_order.begin(), chain_order.end(), std::size_t{0});
  std::stable_sort(chain_order.begin(), chain_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flows[a].start_time < flows[b].start_time;
                   });
  std::function<void(std::size_t)> chain_next = [&](std::size_t k) {
    const std::size_t idx = chain_order[k];
    if (k + 1 < chain_order.size()) {
      const std::size_t nxt = chain_order[k + 1];
      simulator.schedule_at_reserved(sender_specs[nxt].start_time,
                                     setup_now, chain_seqs[nxt],
                                     [&chain_next, k] { chain_next(k + 1); });
    }
    if (streaming) materialize(idx);
    if (senders[idx] != nullptr) senders[idx]->start();
  };
  if (!chain_order.empty()) {
    const std::size_t first = chain_order[0];
    simulator.schedule_at_reserved(sender_specs[first].start_time, setup_now,
                                   chain_seqs[first],
                                   [&chain_next] { chain_next(0); });
  }

  // Optional per-flow goodput sampler (Fig 6/7 time-series plots). The
  // recurring event holds a weak reference to its own closure: a shared
  // self-capture would form an ownership cycle and leak the sampler.
  // `prev` is sized by grow_series, which runs only with per_flow_series.
  auto prev = std::make_shared<std::vector<std::int64_t>>();
  auto sample = std::make_shared<std::function<void()>>();
  // Timeline injections grow the flow set mid-run; series rows join
  // late (leading bins absent — their flows did not exist yet).
  const auto grow_series = [&result, &senders, prev] {
    if (prev->size() < senders.size()) {
      prev->resize(senders.size(), 0);
      result.flow_goodput_bps.resize(senders.size());
    }
  };
  if (opts.per_flow_series) {
    result.flow_goodput_bps.resize(flows.size());
    const sim::Time bin = opts.flow_series_bin;
    *sample = [&, prev, bin,
               weak = std::weak_ptr<std::function<void()>>(sample)]() {
      grow_series();
      for (std::size_t i = 0; i < senders.size(); ++i) {
        const net::FlowResult* r = senders[i]->flow_result();
        const std::int64_t acked = r ? r->bytes_acked : 0;
        result.flow_goodput_bps[i].push_back(
            static_cast<double>(acked - (*prev)[i]) * 8.0 /
            sim::to_seconds(bin));
        (*prev)[i] = acked;
      }
      if (remaining > 0) {
        if (auto self = weak.lock()) simulator.schedule_in(bin, *self);
      }
    };
    simulator.schedule_in(bin, *sample);
  }

  // ---- scheduled scenario timeline (harness/timeline.h) ----
  // Everything below is inert without opts.timeline: no extra events, no
  // extra RNG draws — the pre-timeline code path byte-for-byte.
  sim::Rng timeline_rng(opts.seed ^ kTimelineSeedSalt);
  net::FlowId next_flow_id = 1;
  for (const auto& f : flows) {
    next_flow_id = std::max(next_flow_id, f.id + 1);
  }

  const auto inject = [&](std::vector<net::FlowSpec> batch) {
    const sim::Time now = simulator.now();
    for (net::FlowSpec f : batch) {
      if (f.id == net::kInvalidFlow) {
        f.id = next_flow_id++;
      } else {
        next_flow_id = std::max(next_flow_id, f.id + 1);
      }
      f.start_time += now;  // spec start times are relative to the event
      if (topo.shortest_paths(f.src, f.dst).empty()) {
        // Disconnected at injection time (link outage): stillborn.
        net::FlowResult r;
        r.spec = f;
        r.outcome = net::FlowOutcome::kTerminated;
        r.finish_time = now;
        if (streaming) {
          run_stats->add(r, now);  // folded immediately, O(1) memory
        } else {
          stillborn.push_back(std::move(r));
        }
        continue;
      }
      add_flow(f);
    }
  };

  const auto set_link_state = [&](net::NodeId a, net::NodeId b, bool up) {
    topo.set_link_state(a, b, up);
    if (up) return;  // flows are not re-balanced onto recovered links
    for (std::size_t i = 0; i < senders.size(); ++i) {
      // Streaming mode: unmaterialized flows route at their start event
      // (post-failure routes); retired flows are done. Null is
      // unreachable on the default path.
      if (senders[i] == nullptr) continue;
      const net::FlowResult* r = senders[i]->flow_result();
      if (r == nullptr || r->outcome != net::FlowOutcome::kPending) continue;
      // Senders with private per-subflow routes (M-PDQ) claim the event
      // and handle their own re-pinning; the parent-route check below
      // would miss their subflow paths entirely.
      if (senders[i]->handle_link_down(a, b)) continue;
      const net::RouteRef& route = sender_routes[i];
      if (route == nullptr) continue;
      bool crosses = false;
      for (std::size_t h = 0; h + 1 < route->fwd.size() && !crosses; ++h) {
        crosses = (route->fwd[h] == a && route->fwd[h + 1] == b) ||
                  (route->fwd[h] == b && route->fwd[h + 1] == a);
      }
      if (!crosses) continue;
      const net::FlowSpec& spec = sender_specs[i];
      if (topo.shortest_paths(spec.src, spec.dst).empty()) {
        sender_routes[i] = nullptr;
        senders[i]->reroute(nullptr);  // no path left: terminate
      } else {
        sender_routes[i] = topo.ecmp_route(spec.id, spec.src, spec.dst);
        senders[i]->reroute(sender_routes[i]);
      }
    }
  };

  std::unordered_map<const void*, std::pair<net::NodeId, net::NodeId>>
      resolved_links;
  TimelineCtx tctx{simulator,    topo,   topo.host_ids(),
                   timeline_rng, inject, set_link_state,
                   &resolved_links};
  if (opts.timeline != nullptr && !opts.timeline->events.empty()) {
    // (at, insertion)-ordered execution: stable sort, then schedule —
    // the event queue breaks same-instant ties by scheduling order.
    std::vector<const TimelineEvent*> ordered;
    ordered.reserve(opts.timeline->events.size());
    for (const auto& e : opts.timeline->events) ordered.push_back(&e);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const TimelineEvent* x, const TimelineEvent* y) {
                       return x->at < y->at;
                     });
    timeline_pending = ordered.size();
    for (const TimelineEvent* e : ordered) {
      simulator.schedule_at(e->at, [&, e] {
        e->action(tctx);
        --timeline_pending;
        stop_if_drained();
      });
    }
  }

  // ---- fault plane (faults/fault_plane.h) ----
  // Armed after the timeline so hook installation and flap/reset
  // scheduling never perturb the no-fault event stream (this whole
  // block is inert when opts.faults is null). Fault decisions draw from
  // their own salted RNG, so workload and timeline draws never shift.
  std::unique_ptr<faults::FaultPlane> fault_plane;
  if (opts.faults != nullptr && opts.faults->any()) {
    fault_plane =
        std::make_unique<faults::FaultPlane>(*opts.faults, topo, opts.seed);
    fault_plane->arm(set_link_state);
  }

  // ---- watchdog + invariant auditor (harness/audit.h) ----
  auto audit_report = std::make_shared<AuditReport>();
  const auto audit_log = [&](AuditViolation v) {
    if (audit->log_to_stderr) {
      std::fprintf(stderr, "audit [%s] %s\n", v.kind.c_str(),
                   v.detail.c_str());
    }
    audit_report->violations.push_back(std::move(v));
  };
  // The diagnostic both the stall dump and the stranded-flow audit end
  // with: up to 8 still-pending flows, then the per-link controller
  // state.
  const auto describe_unfinished = [&] {
    std::string out;
    std::size_t listed = 0;
    for (std::size_t i = 0; i < senders.size() && listed < 8; ++i) {
      if (senders[i] == nullptr) continue;
      const net::FlowResult* r = senders[i]->flow_result();
      if (r == nullptr || r->outcome != net::FlowOutcome::kPending) continue;
      out += "  flow=" + std::to_string(sender_specs[i].id) + " acked " +
             std::to_string(r->bytes_acked) + " of " +
             std::to_string(sender_specs[i].size_bytes) + " bytes\n";
      ++listed;
    }
    return out + describe_controllers(topo, 12);
  };
  // Progress token: (unfinished flows, Σ acked bytes, live agents).
  // Materialization and retirement count as progress, so late flow
  // starts do not trip the stall detector.
  std::function<void()> watchdog_tick;
  std::int64_t wd_acked = -1;
  std::size_t wd_remaining = 0;
  std::size_t wd_live = 0;
  int wd_stalls = 0;
  if (audit != nullptr && audit->progress_watchdog) {
    watchdog_tick = [&] {
      if (remaining == 0) return;  // drained; no re-arm
      std::int64_t acked = 0;
      std::size_t live = 0;
      for (net::Agent* s : senders) {
        if (s == nullptr) continue;
        ++live;
        const net::FlowResult* r = s->flow_result();
        if (r != nullptr) acked += r->bytes_acked;
      }
      const bool progressed =
          acked != wd_acked || remaining != wd_remaining || live != wd_live;
      wd_acked = acked;
      wd_remaining = remaining;
      wd_live = live;
      if (progressed) {
        wd_stalls = 0;
      } else if (++wd_stalls >= audit->stall_checks) {
        // Structured diagnostic dump — flow ids, last event key,
        // per-link controller state — then fail the run instead of
        // spinning to the horizon.
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "t=%.1fms: no acked-byte progress for %d x %.1fms "
            "(%zu flow(s) unfinished, %zu live agent(s), last event "
            "seq=%llu)\n",
            sim::to_millis(simulator.now()), audit->stall_checks,
            sim::to_millis(audit->progress_interval), remaining, live,
            static_cast<unsigned long long>(simulator.current_event_seq()));
        audit_log({"no_progress", buf + describe_unfinished()});
        if (audit->stop_on_stall) {
          simulator.stop();
          return;  // no re-arm
        }
        wd_stalls = 0;
      }
      simulator.schedule_in(audit->progress_interval, watchdog_tick);
    };
    simulator.schedule_in(audit->progress_interval, watchdog_tick);
  }

  net::PacketPool& pool = net::PacketPool::local();
  // Peak trackers measure this run alone even on a reused pool/queue.
  pool.relax_live_highwater();
  simulator.relax_peak_pending();
  const std::size_t live_before = pool.live_count();
  const std::uint64_t allocs_before = pool.total_allocated();
  const std::uint64_t acquires_before = pool.total_acquires();
  const std::uint64_t scheduled_before = simulator.events_scheduled();
  const std::uint64_t cancelled_before = simulator.events_cancelled();
  const std::uint64_t coalesced_before = topo.total_events_coalesced();
  const std::uint64_t scans_before = topo.total_flowlist_scan_ops();

  result.engine.events_executed = simulator.run(opts.horizon);

  result.engine.events_scheduled =
      simulator.events_scheduled() - scheduled_before;
  result.engine.events_cancelled =
      simulator.events_cancelled() - cancelled_before;
  result.engine.packet_allocs = pool.total_allocated() - allocs_before;
  result.engine.packet_acquires = pool.total_acquires() - acquires_before;
  result.engine.events_coalesced =
      topo.total_events_coalesced() - coalesced_before;
  result.engine.flowlist_scan_ops =
      topo.total_flowlist_scan_ops() - scans_before;
  result.engine.peak_pending_events = simulator.peak_pending_events();
  result.engine.pool_highwater = pool.live_highwater();
  result.engine.peak_flow_bytes = peak_flow_bytes;

  // ---- end-of-run invariant audit ----
  if (audit != nullptr) {
    if (audit->check_stranded && remaining > 0 &&
        simulator.pending_events() == 0) {
      // The PR-8 signature: a drained event queue with unfinished flows
      // means someone waits on a packet that will never come.
      audit_log({"stranded_flow",
                 "event queue drained with " + std::to_string(remaining) +
                     " flow(s) unfinished:\n" + describe_unfinished()});
    }
    if (audit->require_drain && remaining > 0) {
      audit_log({"unfinished",
                 std::to_string(remaining) +
                     " flow(s) still unfinished at the horizon"});
    }
    if (audit->check_conservation) {
      // Every packet still live must be accounted for: parked in a port
      // queue or held by a pending event closure (stop()/horizon exits
      // leave in-flight transmissions and timers unexecuted). Anything
      // beyond that bound leaked.
      std::size_t queued = 0;
      for (net::NodeId id = 0;
           id < static_cast<net::NodeId>(topo.num_nodes()); ++id) {
        for (const auto& port : topo.node(id).ports()) {
          queued += port->multi_queue() != nullptr
                        ? port->multi_queue()->packets()
                        : port->queue().packets();
        }
      }
      const std::size_t live_now = pool.live_count();
      const std::size_t bound =
          live_before + queued + simulator.pending_events();
      if (live_now > bound) {
        audit_log(
            {"packet_leak",
             std::to_string(live_now) + " packets live at run end but only " +
                 std::to_string(bound) + " accounted for (" +
                 std::to_string(queued) + " queued, " +
                 std::to_string(simulator.pending_events()) +
                 " pending events, " + std::to_string(live_before) +
                 " pre-run)"});
      }
    }
    if (audit->check_ghost_grants) {
      const std::size_t first = audit_report->violations.size();
      scan_ghost_grants(topo, simulator.now(), audit->ghost_grace,
                        *audit_report);
      if (audit->log_to_stderr) {
        for (std::size_t v = first; v < audit_report->violations.size();
             ++v) {
          std::fprintf(stderr, "audit [%s] %s\n",
                       audit_report->violations[v].kind.c_str(),
                       audit_report->violations[v].detail.c_str());
        }
      }
    }
    result.audit = audit_report;
  }
  // Retirement audit (PR-8 regression guard; cheap, always on in debug
  // builds): once every flow has reported done, no live sender may
  // still think it is pending.
  if (remaining == 0) {
    for (std::size_t i = 0; i < senders.size(); ++i) {
      if (senders[i] == nullptr) continue;
      const net::FlowResult* r = senders[i]->flow_result();
      if (r == nullptr || r->outcome != net::FlowOutcome::kPending) continue;
      if (audit != nullptr) {
        audit_log({"stranded_agent",
                   "flow " + std::to_string(sender_specs[i].id) +
                       " reported done but its sender is still pending"});
      } else {
        assert(false && "sender still pending after the run drained");
      }
    }
  }

  // Flush the final partial bin so goodput integrates to the flow sizes.
  if (opts.per_flow_series) {
    grow_series();
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const net::FlowResult* fr = senders[i]->flow_result();
      const std::int64_t acked = fr ? fr->bytes_acked : 0;
      result.flow_goodput_bps[i].push_back(
          static_cast<double>(acked - (*prev)[i]) * 8.0 /
          sim::to_seconds(opts.flow_series_bin));
      (*prev)[i] = acked;
    }
  }

  result.end_time = simulator.now();
  result.queue_drops = topo.total_queue_drops();
  result.wire_drops = topo.total_wire_drops();
  if (streaming) {
    // Flows caught mid-fluid at the horizon fold as pending with the
    // bytes their head + fluid progress delivered (their slots are
    // sender_done from the head handoff, so the loop below skips them).
    // Completions the fluid model reached but whose tail tick never
    // fired (the horizon cut it) fold the same way.
    if (hybrid) {
      for (const auto& c : fluid->drain_completions()) {
        const auto it = fluid_slot.find(c.result.spec.id);
        assert(it != fluid_slot.end());
        net::FlowResult r;
        r.spec = sender_specs[it->second];
        r.bytes_acked = hyb_done[it->second] + c.result.bytes_acked;
        run_stats->add(r, result.end_time);
        fluid_slot.erase(it);
      }
      for (const auto& v : fluid->active_snapshot()) {
        const auto it = fluid_slot.find(v.id);
        if (it == fluid_slot.end()) continue;
        const std::size_t idx = it->second;
        const net::FlowSpec& orig = sender_specs[idx];
        const double mid_bits =
            static_cast<double>(orig.size_bytes - hyb_head - hyb_tail) * 8.0;
        net::FlowResult r;
        r.spec = orig;
        r.bytes_acked =
            hyb_done[idx] +
            static_cast<std::int64_t>((mid_bits - v.remaining_bits) / 8.0);
        run_stats->add(r, result.end_time);
      }
    }
    // Fold in flows still live (or never materialized) at the horizon
    // exactly as the vector path records them: the sender's pending
    // FlowResult, or a zero-byte pending result for flows whose start
    // event never fired. result.flows stays empty — the RunResult
    // helpers read `streaming` instead. A hybrid head/tail segment still
    // in flight folds as the whole flow with its earlier segments' bytes
    // added back.
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].sender_done) continue;
      if (senders[i] != nullptr) {
        const net::FlowResult* r = senders[i]->flow_result();
        assert(r != nullptr);
        if (hybrid && phase[i] != HybridPhase::kNone) {
          net::FlowResult full = *r;
          full.spec = sender_specs[i];
          full.bytes_acked += hyb_done[i];
          run_stats->add(full, result.end_time);
        } else {
          run_stats->add(*r, result.end_time);
        }
      } else {
        net::FlowResult r;
        r.spec = sender_specs[i];
        run_stats->add(r, result.end_time);
      }
      slots[i].sender_done = true;
    }
    result.streaming = run_stats;
  } else {
    result.flows.reserve(senders.size() + stillborn.size());
    for (net::Agent* s : senders) {
      const net::FlowResult* r = s->flow_result();
      assert(r != nullptr);
      result.flows.push_back(*r);
    }
    for (const auto& r : stillborn) result.flows.push_back(r);
  }
  if (meter) {
    for (std::size_t i = 0; i < meter->num_bins(); ++i)
      result.link_utilization.push_back(meter->utilization(i));
  }
  return result;
}

int binary_search_max(int lo, int hi, const std::function<bool(int)>& pred) {
  if (!pred(lo)) return lo - 1;
  int good = lo;
  int bad = hi + 1;
  while (bad - good > 1) {
    const int mid = good + (bad - good) / 2;
    if (pred(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return good;
}

}  // namespace pdq::harness
