#include "core/experiment.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "core/cluster.hpp"
#include "trace/counter_registry.hpp"
#include "trace/runtime.hpp"
#include "trace/tracer.hpp"

namespace saisim {

#if defined(SAISIM_TELEMETRY_ENABLED)
namespace {

// Drives one shard's TimelineSampler: a self-rescheduling event in that
// shard's own queue, so every sample executes on the thread that owns the
// probed state and ticks land at exactly k * period in simulated time.
// Ticks read model state but never mutate it and never draw RNG, so the
// model event sequence — and with it every golden fingerprint — is
// unchanged whether sampling is on or off.
struct SamplerDriver {
  sim::Simulation* sim = nullptr;
  trace::TimelineSampler* sampler = nullptr;
  Time period = Time::zero();

  void arm() {
    sim->after(period, [this] {
      sampler->sample(sim->now());
      arm();
    });
  }
};

}  // namespace
#endif  // SAISIM_TELEMETRY_ENABLED

RunMetrics run_experiment(const ExperimentConfig& cfg) {
  return run_experiment(cfg, nullptr);
}

RunMetrics run_experiment(const ExperimentConfig& cfg,
                          trace::RunTrace* capture) {
  SAISIM_CHECK(cfg.procs_per_client > 0);

  // Observability: when the shared CLI asked for a trace, install a tracer
  // on this thread for the duration of the run. Sweep workers each install
  // their own, so concurrent runs never interleave events. The tracer is
  // purely observational — it must not (and cannot) perturb the model, so
  // golden metrics are identical with it on or off.
  const trace::RuntimeOptions& topts = trace::options();
  std::unique_ptr<trace::Tracer> tracer;
  std::optional<trace::TraceScope> trace_scope;
  if (topts.collect && topts.events) {
    tracer = std::make_unique<trace::Tracer>(topts.mask, topts.capacity);
    trace_scope.emplace(tracer.get());
  }
  // Without an own tracer the ambient one (if any) stays installed — tests
  // wrap run_experiment in a TraceScope to capture its event stream.

  Cluster cluster(cfg);
  sim::Engine& engine = cluster.engine();
  sim::Simulation& simulation = cluster.sim();
  const int num_shards = engine.num_shards();

  // Worker shards record into their own tracers; the streams are merged by
  // timestamp (stable by shard rank) after the run. Shard 0 runs on this
  // thread and inherits the ambient TraceScope installed above.
  std::vector<std::unique_ptr<trace::Tracer>> shard_tracers;
  if (tracer != nullptr) {
    for (int r = 1; r < num_shards; ++r) {
      shard_tracers.push_back(
          std::make_unique<trace::Tracer>(topts.mask, topts.capacity));
      engine.set_tracer(r, shard_tracers.back().get());
    }
  }

#if defined(SAISIM_TELEMETRY_ENABLED)
  // Time-resolved telemetry: one sampler per shard, each probe registered
  // on the shard that owns the state it reads (clients on the control
  // shard, each server on its home shard), driven by self-rescheduling
  // tick events. Metric names carry client/server indices — never shard
  // ranks — so the merged timeline is bit-identical across sim.shards.
  std::vector<std::unique_ptr<trace::TimelineSampler>> samplers;
  std::vector<std::unique_ptr<SamplerDriver>> sampler_drivers;
  std::vector<std::unique_ptr<trace::Tracer>> flight_rings;
  std::optional<trace::TraceScope> flight_scope;
  const bool telemetry_on = trace::telemetry_enabled(cfg.telemetry);
  const trace::TelemetrySloConfig& slo = cfg.telemetry.slo;
  if (telemetry_on) {
    for (int r = 0; r < num_shards; ++r) {
      samplers.push_back(std::make_unique<trace::TimelineSampler>(
          cfg.telemetry.sample_period, slo.window,
          cfg.telemetry.flight_recorder_events));
    }
    for (int c = 0; c < cfg.num_clients; ++c) {
      ClientNode* cl = &cluster.client(c);
      trace::TimelineSampler& ts = *samplers[0];  // clients home on shard 0
      const std::string p = "client" + std::to_string(c);
      ts.add_gauge(p + ".pfs.inflight", [cl] {
        return static_cast<i64>(cl->pfs().inflight_requests());
      });
      ts.add_gauge(p + ".nic.rx_backlog", [cl] {
        return static_cast<i64>(cl->nic().rx_backlog());
      });
      ts.add_counter(p + ".pfs.reads_completed", [cl] {
        return static_cast<i64>(cl->pfs().stats().reads_completed);
      });
      ts.add_counter(p + ".pfs.strips_received", [cl] {
        return static_cast<i64>(cl->pfs().stats().strips_received);
      });
      ts.add_counter(p + ".pfs.retransmits", [cl] {
        return static_cast<i64>(cl->pfs().stats().retransmits);
      });
      ts.add_counter(p + ".nic.interrupts", [cl] {
        return static_cast<i64>(cl->nic().stats().interrupts);
      });
      const u64 p99 = ts.add_window_p99(
          p + ".pfs.read_p99_us", &cl->pfs().stats().read_latency_us_hist);
      if (slo.p99_read_latency_us > 0) {
        ts.watch(p99, static_cast<i64>(slo.p99_read_latency_us));
      }
      const u64 rate = ts.add_window_rate_ppm(
          p + ".pfs.retransmit_rate_ppm",
          [cl] { return static_cast<i64>(cl->pfs().stats().retransmits); },
          [cl] {
            return static_cast<i64>(cl->pfs().stats().strips_received);
          });
      if (slo.retransmit_rate_ppm > 0) {
        ts.watch(rate, static_cast<i64>(slo.retransmit_rate_ppm));
      }
    }
    for (int s = 0; s < cluster.num_servers(); ++s) {
      pfs::IoServer* srv = &cluster.server(s);
      trace::TimelineSampler& ts = *samplers[static_cast<u64>(
          cluster.shard_of(cluster.server_node(s)))];
      const std::string p = "server" + std::to_string(s);
      const u64 depth = ts.add_gauge(p + ".cpu_qdepth", [srv] {
        return static_cast<i64>(srv->cpu_queue_depth());
      });
      if (slo.max_queue_depth > 0) {
        ts.watch(depth, static_cast<i64>(slo.max_queue_depth));
      }
      ts.add_gauge(p + ".dirty_blocks", [srv] {
        return static_cast<i64>(srv->cache().dirty_blocks());
      });
      ts.add_counter(p + ".requests", [srv] {
        return static_cast<i64>(srv->stats().requests);
      });
      ts.add_counter(p + ".bytes_served", [srv] {
        return static_cast<i64>(srv->stats().bytes_served);
      });
    }
    const pfs::MetaServer* meta = &cluster.meta();
    samplers[static_cast<u64>(cluster.shard_of(cluster.meta_node()))]
        ->add_counter("meta.lookups", [meta] {
          return static_cast<i64>(meta->stats().lookups);
        });
    if (cfg.telemetry.kernel_gauges) {
      // Per-shard kernel occupancy — rank-keyed, so legitimately different
      // across sim.shards values; opt-in and excluded from the
      // shard-identity contract.
      for (int r = 0; r < num_shards; ++r) {
        sim::Simulation* shard_sim = &engine.shard(r);
        samplers[static_cast<u64>(r)]->add_gauge(
            "sim.shard" + std::to_string(r) + ".pending_events",
            [shard_sim] {
              return static_cast<i64>(shard_sim->pending_events());
            });
      }
    }
    // Flight recorder: when the watchdog is armed and no full trace was
    // requested, give every shard a small ring tracer so a breach can dump
    // the events leading up to it. Ambient tracers (tests wrapping the run
    // in a TraceScope) are left installed — the ring must never steal
    // events from a requested capture.
    if (trace::slo_armed(cfg.telemetry) && tracer == nullptr) {
      if (trace::Tracer::current() == nullptr) {
        flight_rings.push_back(std::make_unique<trace::Tracer>(
            trace::kAllSubsystems, cfg.telemetry.flight_recorder_events,
            /*ring=*/true));
        flight_scope.emplace(flight_rings.back().get());
      }
      for (int r = 1; r < num_shards; ++r) {
        flight_rings.push_back(std::make_unique<trace::Tracer>(
            trace::kAllSubsystems, cfg.telemetry.flight_recorder_events,
            /*ring=*/true));
        engine.set_tracer(r, flight_rings.back().get());
      }
    }
    for (int r = 0; r < num_shards; ++r) {
      if (!samplers[static_cast<u64>(r)]->has_probes()) continue;
      sampler_drivers.push_back(std::make_unique<SamplerDriver>());
      sampler_drivers.back()->sim = &engine.shard(r);
      sampler_drivers.back()->sampler = samplers[static_cast<u64>(r)].get();
      sampler_drivers.back()->period = cfg.telemetry.sample_period;
      sampler_drivers.back()->arm();
    }
  }
#endif  // SAISIM_TELEMETRY_ENABLED

  // Workload: procs_per_client IOR processes per client, placed round-robin
  // over the cores; each reads its own disjoint region of the shared file
  // space (distinct server strip phases emerge naturally from the offsets).
  const bool hints = policy_uses_hints(cfg.policy);
  std::vector<std::unique_ptr<workload::IorProcess>> procs;
  int remaining = cfg.num_clients * cfg.procs_per_client;
  ProcessId next_pid = 1;
  for (int c = 0; c < cfg.num_clients; ++c) {
    ClientNode& node = cluster.client(c);
    if (node.background() != nullptr) node.background()->start(cfg.max_sim_time);
    for (int p = 0; p < cfg.procs_per_client; ++p) {
      workload::IorConfig ior = cfg.ior;
      // Disjoint, strip-aligned file regions per process, phase-shifted by
      // a sub-stripe offset so concurrent processes do not march over the
      // same server subset in lockstep.
      ior.file_offset_start =
          static_cast<u64>(next_pid) *
              (cfg.ior.total_bytes * 4 + (64ull << 20)) +
          static_cast<u64>(next_pid) * 13 * cfg.strip_size;
      const CoreId home = p % cfg.client.cores;
      procs.push_back(std::make_unique<workload::IorProcess>(
          simulation, node.cpus(), node.memory(), node.pfs(), next_pid, home,
          hints, ior));
      ++next_pid;
    }
  }
  for (auto& p : procs) {
    p->start([&remaining](const workload::IorProcessStats&) { --remaining; });
  }

  // Advance to completion. The stop predicate lives on shard 0 (every IOR
  // process is a client, and clients home there), so the engine halts at
  // exactly the event that finishes the workload — worker shards may have
  // conservatively run ahead within the last lookahead window, which is
  // invisible to the metrics below: every RunMetrics field derives from
  // client-side state or from shard 0's clock.
  engine.run_while([&remaining] { return remaining > 0; }, cfg.max_sim_time);

  // ---- Metric aggregation --------------------------------------------
  // The end-of-run barrier: every subsystem stats struct is published into
  // a named CounterRegistry through its describe() overload, so the
  // --metrics CSV names each counter once, next to its field. Only counters
  // no stats struct owns are registered here by hand.
  trace::CounterRegistry registry;
  RunMetrics m;
  m.elapsed = simulation.now();
  const Time elapsed = m.elapsed;

  mem::CoreCacheStats cache_total;
  Time busy_total = Time::zero();
  Time softirq_total = Time::zero();
  double unhalted = 0.0;
  double latency_sum = 0.0;
  u64 latency_n = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    ClientNode* client = &cluster.client(c);
    cache_total += client->memory().total_stats();
    busy_total += client->cpus().total_busy();
    softirq_total +=
        client->cpus().total_busy_by_prio(cpu::Priority::kInterrupt);
    unhalted += static_cast<double>(client->cpus().total_unhalted().count());
    registry.counter("mem.c2c_transfers")
        .add(client->memory().c2c_transfers());
    registry.counter("mem.dram_line_reads")
        .add(client->memory().dram_line_reads());
    registry.counter("apic.raised").add(client->io_apic().stats().raised);
    registry.counter("apic.hinted_routes")
        .add(client->io_apic().policy().hinted_routes());
    const net::NicStats& nic = client->nic().stats();
    const pfs::PfsClientStats& pc = client->pfs().stats();
    // Every request has settled once the last process has finished.
    SAISIM_CHECK(pc.reads_issued == pc.reads_completed + pc.reads_failed);
    SAISIM_CHECK(pc.writes_issued == pc.writes_completed + pc.writes_failed);
    SAISIM_CHECK(client->pfs().inflight_requests() == 0);
    trace::publish(registry, "nic", nic);
    trace::publish(registry, "pfs", pc);
    if (const pfs::StragglerScheduler* sched = client->pfs().scheduler()) {
      trace::publish(registry, "pfs", sched->stats());
    }
    registry.latency("pfs.read_latency_us").merge(pc.read_latency_us_hist);
    for (int i = 0; i < client->cpus().num_cores(); ++i) {
      trace::publish(registry, "cpu", client->cpus().core(i).accounting());
    }
    m.interrupts += nic.interrupts;
    m.rx_drops += nic.dropped;
    m.retransmits += pc.retransmits;
    m.duplicate_strips += pc.duplicate_strips;
    m.failed_requests += pc.reads_failed + pc.writes_failed;
    m.hedges_issued += pc.hedges_issued;
    m.hedges_won += pc.hedges_won;
    m.hedges_wasted += pc.hedges_wasted;
    latency_sum += pc.read_latency_us.sum();
    latency_n += pc.read_latency_us.count();
  }
  // Aggregate `server.*` rows always exist (all zero on thin servers). The
  // same rows per server, `server<i>.*`, feed tools/trace_summary's table
  // and exist only under the deep-server model, so default CSVs stay small.
  const bool deep_servers =
      cfg.server.cache.capacity_bytes > 0 || cfg.server.sched.enabled;
  auto publish_server = [&registry](const std::string& prefix,
                                    const pfs::IoServer& server) {
    trace::publish(registry, prefix, server.stats());
    trace::publish(registry, prefix + ".cache", server.cache().stats());
    trace::publish(registry, prefix, server.cpu_stats());
  };
  for (int s = 0; s < cluster.num_servers(); ++s) {
    publish_server("server", cluster.server(s));
    if (deep_servers) {
      publish_server("server" + std::to_string(s), cluster.server(s));
    }
  }
  trace::publish(registry, "meta", cluster.meta().stats());
  // Summed in shard-rank order.
  for (const auto& injector : cluster.fault_injectors()) {
    trace::publish(registry, "fault", injector->stats());
  }

  // Kernel utilization: per-shard executed/pending event counts, so
  // tools/trace_summary can report shard imbalance, plus the totals and the
  // round/cross-post traffic of the conservative synchronizer.
  u64 events_total = 0;
  u64 pending_total = 0;
  for (int r = 0; r < num_shards; ++r) {
    const std::string prefix = "sim.shard" + std::to_string(r);
    const u64 executed = engine.shard(r).events_executed();
    const u64 pending = engine.shard(r).pending_events();
    registry.counter(prefix + ".events_executed").add(executed);
    registry.counter(prefix + ".pending_events").add(pending);
    // Barrier diagnostics: windows the shard actually executed, and the
    // wall-clock time the coordinator spent waiting on it (0 when windows
    // ran inline). Wall time never feeds a simulated metric — it lives in
    // the metrics CSV only, so goldens stay bit-exact.
    registry.counter(prefix + ".rounds").add(engine.shard_rounds(r));
    registry.counter(prefix + ".sync_wait_ns").add(engine.shard_sync_wait_ns(r));
    events_total += executed;
    pending_total += pending;
  }
  registry.counter("sim.events_executed").add(events_total);
  registry.counter("sim.pending_events").add(pending_total);
  registry.counter("sim.shards").add(static_cast<u64>(num_shards));
  registry.counter("sim.rounds").add(engine.rounds());
  registry.counter("sim.cross_shard_posts").add(engine.cross_shard_posts());
  m.c2c_transfers = registry.value("mem.c2c_transfers");
  m.p99_read_latency_us = registry.latency("pfs.read_latency_us").quantile(0.99);
  m.l2_miss_rate = cache_total.miss_rate();
  const i64 total_cores =
      static_cast<i64>(cfg.num_clients) * cfg.client.cores;
  m.cpu_utilization = busy_total.ratio(elapsed * total_cores);
  m.unhalted_cycles = unhalted;
  m.softirq_cycles = static_cast<double>(
      cfg.client.core_freq.cycles_in(softirq_total).count());

  m.per_client_bandwidth_mbps.assign(static_cast<u64>(cfg.num_clients), 0.0);
  for (u64 i = 0; i < procs.size(); ++i) {
    const u64 bytes = procs[i]->stats().bytes_read;
    registry.counter("ior.bytes_read").add(bytes);
    const u64 client_idx = i / static_cast<u64>(cfg.procs_per_client);
    m.per_client_bandwidth_mbps[client_idx] +=
        throughput_mbps(bytes, elapsed);
  }
  m.total_bytes = registry.value("ior.bytes_read");
  m.bandwidth_mbps = throughput_mbps(m.total_bytes, elapsed);

  m.mean_read_latency_us =
      latency_n ? latency_sum / static_cast<double>(latency_n) : 0.0;

  const u64 raised = registry.value("apic.raised");
  m.hinted_interrupt_share_x1e4 =
      raised ? registry.value("apic.hinted_routes") * 10'000 / raised : 0;

  // Merge the per-shard telemetry series into the export-ready timeline
  // and derive the SLO verdict. All counters below are registered only
  // when telemetry is on, so telemetry-off metrics CSVs stay bit-identical
  // to pre-telemetry builds.
  trace::TimelineSeries timeline;
#if defined(SAISIM_TELEMETRY_ENABLED)
  if (telemetry_on) {
    std::vector<const trace::TimelineSampler*> by_rank;
    by_rank.reserve(samplers.size());
    for (auto& s : samplers) by_rank.push_back(s.get());
    timeline = trace::merge_timelines(by_rank);
    m.slo_breaches = timeline.breaches.size();
    if (!timeline.breaches.empty()) {
      m.first_slo_breach_us = static_cast<u64>(
          timeline.breaches.front().when.picoseconds() / 1'000'000);
    }
    registry.counter("telemetry.samples").add(timeline.ticks);
    registry.counter("telemetry.slo_breaches").add(m.slo_breaches);
  }
#endif  // SAISIM_TELEMETRY_ENABLED

  // Hand the run to the process-wide collector when --trace/--metrics was
  // given. The sort key is the config fingerprint (policy is a reflected
  // field, so it participates): export order is deterministic and reruns
  // of an identical config dedupe away.
  if (topts.collect || capture != nullptr) {
    trace::RunTrace run;
    run.label = std::string(policy_name(cfg.policy));
    run.sort_key = util::reflect::fingerprint_of(cfg);
    if (tracer) {
      // Per-shard streams merge by timestamp, stable by shard rank (shard 0
      // first) — deterministic at a fixed shard count. With one shard this
      // is exactly the pre-shard single-stream path.
      std::vector<std::vector<trace::Event>> streams;
      streams.push_back(tracer->take());
      for (auto& t : shard_tracers) streams.push_back(t->take());
      run.events = trace::merge_event_streams(std::move(streams));
      run.spans = trace::build_spans(run.events);
    }
    run.counters = registry.snapshot();
    run.timeline = std::move(timeline);
    if (capture != nullptr) {
      *capture = run;
      if (topts.collect) {
        trace::RunCollector::instance().add_run(std::move(run));
      }
    } else {
      trace::RunCollector::instance().add_run(std::move(run));
    }
  }

  return m;
}

Comparison make_comparison(const RunMetrics& baseline, const RunMetrics& sais) {
  Comparison out;
  out.baseline = baseline;
  out.sais = sais;
  if (out.baseline.bandwidth_mbps > 0) {
    out.bandwidth_speedup_pct =
        (out.sais.bandwidth_mbps - out.baseline.bandwidth_mbps) /
        out.baseline.bandwidth_mbps * 100.0;
  }
  if (out.baseline.l2_miss_rate > 0) {
    out.miss_rate_reduction_pct =
        (out.baseline.l2_miss_rate - out.sais.l2_miss_rate) /
        out.baseline.l2_miss_rate * 100.0;
  }
  if (out.baseline.unhalted_cycles > 0) {
    out.unhalted_reduction_pct =
        (out.baseline.unhalted_cycles - out.sais.unhalted_cycles) /
        out.baseline.unhalted_cycles * 100.0;
  }
  return out;
}

}  // namespace saisim
