#include "workloads.hpp"

namespace perfbench {

using saisim::Bandwidth;
using saisim::ExperimentConfig;
using saisim::PolicyKind;
using saisim::Time;
using saisim::u64;

namespace {

// The client of every workload: the paper's bonded 3 Gb/s NIC with one
// receive queue per port, 8 cores (the default), 4 IOR processes.
void paper_client(ExperimentConfig& c) {
  c.client.nic_bandwidth = Bandwidth::gbit(3.0);
  c.client.nic.queues = 3;
  c.procs_per_client = 4;
}

// Paper §V.A headline point: 48 thin servers, 64 KiB strips, 1 MiB
// sequential reads.
void paper_pair(ExperimentConfig& c) {
  paper_client(c);
  c.num_servers = 48;
  c.strip_size = 64ull << 10;
  c.ior.transfer_size = 1ull << 20;
}

void paper_pair_sharded(ExperimentConfig& c) {
  paper_pair(c);
  c.sim.shards = 2;
}

// Deep servers (64 MiB LRU cache with read-ahead, priority CPU queue) under
// 4 KiB strips and 192 KiB reads, so every read fans out to all 48 servers;
// straggler-aware client dispatch with hedging, one 5 ms straggler, 1 %
// loss and telemetry with a p99 SLO (which arms the flight recorder).
void tail_hedge(ExperimentConfig& c) {
  paper_client(c);
  c.num_servers = 48;
  c.strip_size = 4ull << 10;
  c.ior.transfer_size = 192ull << 10;
  c.server.cache.capacity_bytes = 64ull << 20;
  c.server.cache.readahead_blocks = 64;
  c.server.sched.enabled = true;
  c.server.sched.discipline = saisim::pfs::SchedDiscipline::kPriority;
  c.client.sched.policy = saisim::pfs::ClientSchedPolicy::kStragglerAware;
  c.client.sched.hedge_quantile = 0.5;
  c.client.sched.min_samples = 1;
  c.client.sched.slow_threshold = 1.5;
  c.fault.straggler_node = 0;  // the first I/O server
  c.fault.straggler_delay = Time::ms(5);
  c.fault.loss_rate = 0.01;
  c.client.pfs.retransmit_timeout = Time::ms(50);
  c.telemetry.sample_period = Time::us(500);
  c.telemetry.slo.p99_read_latency_us = 20'000;
}

// Writers against 16 deep servers: 64 MiB write-back cache with its flush
// daemon, priority CPU queue, 64 KiB strips, 128 KiB transfers, lossless,
// fifo client dispatch.
void deep_write_back(ExperimentConfig& c) {
  paper_client(c);
  c.num_servers = 16;
  c.strip_size = 64ull << 10;
  c.ior.mode = saisim::workload::IorMode::kWrite;
  c.ior.transfer_size = 128ull << 10;
  c.server.cache.capacity_bytes = 64ull << 20;
  c.server.cache.write_back = true;
  c.server.sched.enabled = true;
  c.server.sched.discipline = saisim::pfs::SchedDiscipline::kPriority;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      {"paper_pair_48", {PolicyKind::kIrqbalance, PolicyKind::kSourceAware},
       32, 2, "", paper_pair},
      {"tail_hedge_fine", {PolicyKind::kSourceAware}, 160, 8, "", tail_hedge},
      {"deep_write_back", {PolicyKind::kIrqbalance}, 512, 16, "",
       deep_write_back},
      {"paper_pair_shards2",
       {PolicyKind::kIrqbalance, PolicyKind::kSourceAware}, 32, 2,
       "paper_pair_48", paper_pair_sharded},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ExperimentConfig make_config(const Workload& w, u64 seed, u64 transfers,
                             PolicyKind policy) {
  ExperimentConfig c;
  w.configure(c);
  c.ior.total_bytes = transfers * c.ior.transfer_size;
  c.policy = policy;
  c.seed = seed;
  c.fault.seed = seed;
  return c;
}

}  // namespace perfbench
