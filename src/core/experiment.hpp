// The top-level experiment harness: builds a simulated cluster (one or more
// multi-core clients, a metadata server, N I/O servers behind one switch),
// runs an IOR-like read workload under a chosen interrupt-scheduling
// policy, and reports the four metrics the paper evaluates: bandwidth, L2
// cache miss rate, CPU utilisation, and CPU_CLK_UNHALTED.
#pragma once

#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "mem/memory_system.hpp"
#include "net/fault.hpp"
#include "net/nic.hpp"
#include "pfs/io_server.hpp"
#include "pfs/meta_server.hpp"
#include "sais/sais_client.hpp"
#include "trace/export.hpp"
#include "trace/timeline.hpp"
#include "util/reflect.hpp"
#include "workload/background_load.hpp"
#include "workload/ior_process.hpp"

namespace saisim {

struct ClientMachineConfig {
  int cores = 8;  // two quad-core Opterons
  Frequency core_freq = Frequency::ghz(2.7);
  mem::CacheConfig cache{};  // 512 KiB private L2, 64 B lines, 16-way
  mem::MemoryTimings timings{};
  /// 4x DDR2-667 single rank = 5333 MB/s peak (paper §VI).
  Bandwidth dram_bandwidth = Bandwidth::mb_per_sec(5333);
  net::NicConfig nic{};
  /// Client NIC rate: 1 Gb/s, or 3 Gb/s for the bonded three-port setup.
  Bandwidth nic_bandwidth = Bandwidth::gbit(3.0);
  Time user_quantum = Time::us(100);
  /// PFS protocol engine knobs (retransmit/RTO budget).
  pfs::PfsClientConfig pfs{};
  /// Client-side straggler-aware strip dispatch + hedged reads (fifo =
  /// off; pfs/straggler_sched.hpp).
  pfs::ClientSchedConfig sched{};
};

struct ServerMachineConfig {
  pfs::IoServerConfig io{};
  /// Deep server model: block buffer cache (off at capacity_bytes = 0).
  pfs::BufferCacheConfig cache{};
  /// Deep server model: CPU/task scheduler (off by default).
  pfs::ServerSchedConfig sched{};
  Bandwidth nic_bandwidth = Bandwidth::gbit(1.0);
};

/// Simulation-kernel knobs (the sharded parallel DES core).
struct SimKernelConfig {
  /// Event-queue shards the kernel runs on. 1 = the serial kernel (the
  /// exact pre-shard run loop). With S > 1, all client machines home on
  /// shard 0 (the control shard, which also owns the root RNG stream and
  /// the stop predicate) and the I/O + metadata servers spread round-robin
  /// over shards 1..S-1; rounds execute on S-1 worker threads under a
  /// conservative lookahead. Goldens are bit-exact at any value.
  int shards = 1;
  /// Conservative lookahead override. Zero (the default) derives the
  /// lookahead from the topology: the switch store-and-forward latency,
  /// which every cross-shard path pays. A smaller explicit value is legal
  /// (just more rounds); a larger one would violate the conservative
  /// contract and is rejected.
  Time lookahead_override = Time::zero();
};

template <class V>
void describe(V& v, SimKernelConfig& c) {
  namespace r = util::reflect;
  v.field("shards", c.shards, r::in_range(1, 64));
  v.field("lookahead_override", c.lookahead_override, r::non_negative());
}

struct ExperimentConfig {
  int num_clients = 1;
  int num_servers = 8;
  u64 strip_size = 64ull << 10;
  ClientMachineConfig client{};
  ServerMachineConfig server{};
  workload::IorConfig ior{};
  /// IOR processes per client node (the paper runs several concurrently;
  /// four keeps the client path — not the bonded NIC — the contended
  /// resource at 3 Gb/s, which is the regime Figures 5-11 are measured in).
  int procs_per_client = 4;
  PolicyKind policy = PolicyKind::kIrqbalance;
  workload::BackgroundConfig background{};
  bool enable_background = true;
  Time switch_latency = Time::us(5);
  Time link_latency = Time::us(2);
  /// Metadata server model (meta.service_time, meta.serialize).
  pfs::MetaServerConfig meta{};
  u64 seed = 42;
  /// Safety net: abort the run if the workload has not drained by then.
  Time max_sim_time = Time::sec(600);
  /// Network fault injection (all knobs default to off — lossless fabric).
  net::FaultConfig fault{};
  /// Simulation-kernel parallelism (sim.shards, sim.lookahead_override).
  SimKernelConfig sim{};
  /// Time-resolved telemetry: deterministic metric sampling + SLO watchdog
  /// (off by default — telemetry.sample_period = 0 records nothing).
  trace::TelemetryConfig telemetry{};
};

template <class V>
void describe(V& v, ClientMachineConfig& c) {
  namespace r = util::reflect;
  // The Fig. 4 IP-options hint carries a 5-bit core id, so a SAIs client
  // can address at most 32 cores (net::IpOptions::kMaxEncodableCore).
  v.field("cores", c.cores, r::in_range(1, 32));
  v.field("core_freq", c.core_freq, r::positive(), "Hz");
  v.group("cache", c.cache);
  v.group("timings", c.timings);
  // 0 = unlimited DRAM (the kernel microbenches use it); NICs must have a
  // finite rate because packet serialisation divides by it.
  v.field("dram_bandwidth", c.dram_bandwidth, r::non_negative(), "B/s");
  v.group("nic", c.nic);
  v.field("nic_bandwidth", c.nic_bandwidth, r::positive(), "B/s");
  v.field("user_quantum", c.user_quantum, r::positive());
  v.group("pfs", c.pfs);
  v.group("sched", c.sched);
}

template <class V>
void describe(V& v, ServerMachineConfig& c) {
  namespace r = util::reflect;
  v.group("io", c.io);
  v.group("cache", c.cache);
  v.group("sched", c.sched);
  v.field("nic_bandwidth", c.nic_bandwidth, r::positive(), "B/s");
  // The coin flip is the residency model of a server without a buffer
  // cache; with one, the ratio would be silently ignored.
  v.invariant(c.io.cache_hit_ratio == 0.0 || c.cache.capacity_bytes == 0,
              "server.io.cache_hit_ratio and server.cache.capacity_bytes "
              "are exclusive: set at most one of them");
}

template <class V>
void describe(V& v, ExperimentConfig& c) {
  namespace r = util::reflect;
  v.field("num_clients", c.num_clients, r::in_range(1, 4096));
  v.field("num_servers", c.num_servers, r::in_range(1, 4096));
  v.field("strip_size", c.strip_size, r::pow2_at_least(512), "B");
  v.group("client", c.client);
  v.group("server", c.server);
  v.group("ior", c.ior);
  v.field("procs_per_client", c.procs_per_client, r::in_range(1, 1024));
  v.field("policy", c.policy, r::EnumNames{kPolicyNames, kNumPolicyKinds});
  v.group("background", c.background);
  v.field("enable_background", c.enable_background);
  v.field("switch_latency", c.switch_latency, r::non_negative());
  v.field("link_latency", c.link_latency, r::non_negative());
  v.group("meta", c.meta);
  v.field("seed", c.seed, r::non_negative());
  v.field("max_sim_time", c.max_sim_time, r::positive());
  v.group("fault", c.fault);
  v.group("sim", c.sim);
  v.group("telemetry", c.telemetry);
  v.invariant(!trace::slo_armed(c.telemetry) ||
                  trace::telemetry_enabled(c.telemetry),
              "telemetry.slo thresholds need telemetry.sample_period > 0: "
              "the watchdog evaluates at sample ticks");
  v.invariant(c.sim.shards == 1 || c.switch_latency > Time::zero(),
              "sim.shards > 1 needs a positive switch_latency: every "
              "cross-shard path must carry at least the lookahead");
  v.invariant(c.sim.shards == 1 ||
                  c.sim.lookahead_override <= c.switch_latency,
              "sim.lookahead_override must not exceed switch_latency (the "
              "minimum cross-shard latency bounds the safe lookahead)");
}

/// Aggregate results of one run (all clients combined).
struct RunMetrics {
  /// Aggregate application-visible read bandwidth (decimal MB/s, as IOR
  /// reports it).
  double bandwidth_mbps = 0.0;
  /// L2 miss rate over all client cores: misses / accesses.
  double l2_miss_rate = 0.0;
  /// Mean CPU utilisation over the run, all client cores.
  double cpu_utilization = 0.0;
  /// Total unhalted cycles across all client cores (Oprofile's
  /// CPU_CLK_UNHALTED, summed).
  double unhalted_cycles = 0.0;
  /// Unhalted cycles spent in softirq context (interrupt share).
  double softirq_cycles = 0.0;

  u64 total_bytes = 0;
  Time elapsed = Time::zero();
  u64 c2c_transfers = 0;
  u64 interrupts = 0;
  u64 retransmits = 0;
  u64 rx_drops = 0;
  /// Late/duplicate replies the client stripped (dedup path).
  u64 duplicate_strips = 0;
  /// Reads + writes that exhausted their retransmit budget.
  u64 failed_requests = 0;
  /// p99 application read latency (log2-bucket upper edge, µs).
  u64 p99_read_latency_us = 0;
  u64 hinted_interrupt_share_x1e4 = 0;  // hinted routes / raised, x1e4
  double mean_read_latency_us = 0.0;
  /// Per-client bandwidths (multi-client scaling figure).
  std::vector<double> per_client_bandwidth_mbps;
  /// SLO watchdog verdict (0 / 0 when telemetry or the watchdog is off).
  u64 slo_breaches = 0;
  /// Sim time of the first breach, µs (0 when no breach — time-to-first-
  /// breach sweep column).
  u64 first_slo_breach_us = 0;
  /// Hedged-read accounting, all clients combined (0 unless
  /// client.sched.policy = straggler_aware with hedging armed).
  u64 hedges_issued = 0;
  u64 hedges_won = 0;
  u64 hedges_wasted = 0;
};

/// The export columns (sweep/export.hpp), in their stable order: append
/// only, since downstream BENCH_*.json trajectories key on these names.
/// A Time field exports as double µs. per_client_bandwidth_mbps is a
/// vector, not a column.
template <class V>
void describe(V& v, RunMetrics& m) {
  v.field("bandwidth_mbps", m.bandwidth_mbps);
  v.field("l2_miss_rate", m.l2_miss_rate);
  v.field("cpu_utilization", m.cpu_utilization);
  v.field("unhalted_cycles", m.unhalted_cycles);
  v.field("softirq_cycles", m.softirq_cycles);
  v.field("mean_read_latency_us", m.mean_read_latency_us);
  v.field("elapsed_us", m.elapsed);
  v.field("total_bytes", m.total_bytes);
  v.field("c2c_transfers", m.c2c_transfers);
  v.field("interrupts", m.interrupts);
  v.field("retransmits", m.retransmits);
  v.field("rx_drops", m.rx_drops);
  v.field("hinted_interrupt_share_x1e4", m.hinted_interrupt_share_x1e4);
  v.field("duplicate_strips", m.duplicate_strips);
  v.field("failed_requests", m.failed_requests);
  v.field("p99_read_latency_us", m.p99_read_latency_us);
  v.field("slo_breaches", m.slo_breaches);
  v.field("first_slo_breach_us", m.first_slo_breach_us);
  v.field("hedges_issued", m.hedges_issued);
  v.field("hedges_won", m.hedges_won);
  v.field("hedges_wasted", m.hedges_wasted);
}

/// One simulated client machine and its software stack.
class ClientNode {
 public:
  ClientNode(sim::Simulation& simulation, net::Network& network,
             const ExperimentConfig& cfg, NodeId node,
             std::vector<NodeId> server_nodes, NodeId meta_node);

  cpu::CpuSystem& cpus() { return *cpus_; }
  mem::MemorySystem& memory() { return *memory_; }
  apic::IoApic& io_apic() { return *io_apic_; }
  net::ClientNic& nic() { return *nic_; }
  pfs::PfsClient& pfs() { return *pfs_; }
  mem::AddressSpace& address_space() { return address_space_; }
  workload::BackgroundLoad* background() { return background_.get(); }
  const sais::SaisClient* sais() const { return sais_.get(); }

 private:
  mem::AddressSpace address_space_;
  std::unique_ptr<cpu::CpuSystem> cpus_;
  std::unique_ptr<mem::MemorySystem> memory_;
  std::unique_ptr<apic::IoApic> io_apic_;
  std::unique_ptr<net::ClientNic> nic_;
  std::unique_ptr<pfs::PfsClient> pfs_;
  std::unique_ptr<sais::SaisClient> sais_;
  std::unique_ptr<workload::BackgroundLoad> background_;
};

/// Build the cluster, run the workload to completion, aggregate metrics.
RunMetrics run_experiment(const ExperimentConfig& cfg);

/// As above, but also fills `capture` with the run's observability output
/// (merged telemetry timeline, counters, any recorded events) instead of
/// relying on the process-wide RunCollector — the deterministic-telemetry
/// tests diff captures across shard counts and reruns through this.
RunMetrics run_experiment(const ExperimentConfig& cfg,
                          trace::RunTrace* capture);

/// Two runs of the same configuration under different policies, with the
/// paper's speed-up percentage ((sais - base) / base * 100).
struct Comparison {
  RunMetrics baseline;
  RunMetrics sais;
  double bandwidth_speedup_pct = 0.0;
  double miss_rate_reduction_pct = 0.0;
  double unhalted_reduction_pct = 0.0;
};

/// Derive the comparison percentages from two finished runs. Executing the
/// runs themselves is the sweep engine's job: `saisim::sweep::compare_policies`
/// (sweep/runner.hpp) runs both policies concurrently and returns this.
Comparison make_comparison(const RunMetrics& baseline, const RunMetrics& sais);

}  // namespace saisim
