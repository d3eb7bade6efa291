// Counter pin: the aggregate --metrics rows of three small runs, by name
// and value. Each run lists every counter name it emits apart from the
// per-server `server<i>.*` rows, asserts each is still emitted, and folds
// the listed (name, value) pairs into one FNV-1a hash. A refactor of how
// run_experiment publishes counters may add rows, but may not drop,
// rename or change one of these.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace saisim {
namespace {

struct Fnv {
  u64 h = 0xcbf29ce484222325ull;
  void byte(u64 b) {
    h ^= b & 0xff;
    h *= 0x100000001b3ull;
  }
  void add(const std::string& s) {
    for (char c : s) byte(static_cast<unsigned char>(c));
    byte(0);
  }
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) byte(v >> (8 * i));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

// Rows every run emits, thin or deep, read or write.
const std::vector<std::string> kCommonRows = {
    "apic.raised",
    "cpu.items_completed",
    "cpu.preemptions",
    "cpu.timeslice_rotations",
    "ior.bytes_read",
    "mem.c2c_transfers",
    "mem.dram_line_reads",
    "meta.lookups",
    "meta.max_queue_depth",
    "meta.queue_wait_ps",
    "nic.interrupts",
    "nic.rx_bytes",
    "nic.rx_dropped",
    "nic.rx_messages",
    "pfs.duplicate_strips",
    "pfs.hedges_issued",
    "pfs.hedges_wasted",
    "pfs.hedges_won",
    "pfs.read_latency_us.count",
    "pfs.read_latency_us.p50",
    "pfs.read_latency_us.p99",
    "pfs.read_latency_us.total",
    "pfs.reads_completed",
    "pfs.reads_failed",
    "pfs.reads_issued",
    "pfs.retransmits",
    "pfs.strips_received",
    "pfs.writes_failed",
    "server.bytes_served",
    "server.bytes_written",
    "server.cache.block_hits",
    "server.cache.block_misses",
    "server.cache.dirty_writebacks",
    "server.cache.evictions",
    "server.cache.flushed_blocks",
    "server.cache.readahead_issued",
    "server.cache.readahead_useful",
    "server.cache_hits",
    "server.flush_bursts",
    "server.requests",
    "server.sched_tasks",
    "server.write_requests",
    "sim.cross_shard_posts",
    "sim.events_executed",
    "sim.pending_events",
    "sim.rounds",
    "sim.shard0.events_executed",
    "sim.shard0.pending_events",
    "sim.shard0.rounds",
    "sim.shard0.sync_wait_ns",
    "sim.shards",
};

// Rows the hinted, faulty, hedged, sampled run adds.
const std::vector<std::string> kTailHedgeRows = {
    "apic.hinted_routes",
    "fault.degraded_packets",
    "fault.packets_dropped",
    "fault.packets_duplicated",
    "fault.packets_jittered",
    "fault.straggler_delays",
    "fault.straggler_rx_delays",
    "fault.straggler_tx_delays",
    "pfs.sched_probes",
    "pfs.sched_redirects",
    "telemetry.samples",
    "telemetry.slo_breaches",
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Runs `cfg`, checks every row of `rows` is emitted, and returns the hash
/// of the (name, value) pairs in `rows` order. Barrier wait is host wall
/// time, so its value is left out of the hash.
std::string pin_of(const ExperimentConfig& cfg,
                   const std::vector<std::string>& rows) {
  trace::RunTrace capture;
  run_experiment(cfg, &capture);
  const std::map<std::string, u64> emitted(capture.counters.begin(),
                                           capture.counters.end());
  Fnv f;
  for (const std::string& name : rows) {
    const auto it = emitted.find(name);
    EXPECT_NE(it, emitted.end()) << name << " is no longer emitted";
    f.add(name);
    const bool wall = ends_with(name, ".sync_wait_ns");
    f.add(it == emitted.end() || wall ? u64{0} : it->second);
  }
  return f.hex();
}

std::vector<std::string> with(std::vector<std::string> rows,
                              const std::vector<std::string>& extra) {
  rows.insert(rows.end(), extra.begin(), extra.end());
  return rows;
}

TEST(CounterPin, ThinDefault) {
  ExperimentConfig c;
  c.ior.total_bytes = 4ull << 20;
  EXPECT_EQ(pin_of(c, kCommonRows), "699324986f86b50c");
}

// perfbench's tail_hedge_fine on 4 servers: deep read servers,
// straggler_aware dispatch with hedging, a 5 ms straggler, 1 % loss and
// telemetry with a p99 SLO.
TEST(CounterPin, TailHedgeOnFourServers) {
  ExperimentConfig c;
  c.client.nic.queues = 3;
  c.num_servers = 4;
  c.strip_size = 4ull << 10;
  c.ior.transfer_size = 192ull << 10;
  c.ior.total_bytes = 8 * c.ior.transfer_size;
  c.policy = PolicyKind::kSourceAware;
  c.server.cache.capacity_bytes = 64ull << 20;
  c.server.cache.readahead_blocks = 64;
  c.server.sched.enabled = true;
  c.server.sched.discipline = pfs::SchedDiscipline::kPriority;
  c.client.sched.policy = pfs::ClientSchedPolicy::kStragglerAware;
  c.client.sched.hedge_quantile = 0.5;
  c.client.sched.min_samples = 1;
  c.client.sched.slow_threshold = 1.5;
  c.fault.straggler_node = 0;
  c.fault.straggler_delay = Time::ms(5);
  c.fault.loss_rate = 0.01;
  c.client.pfs.retransmit_timeout = Time::ms(50);
  c.telemetry.sample_period = Time::us(500);
  c.telemetry.slo.p99_read_latency_us = 20'000;
  EXPECT_EQ(pin_of(c, with(kCommonRows, kTailHedgeRows)),
            "62e90b12347dbb56");
}

// perfbench's deep_write_back on 4 servers: writers against write-back
// deep servers with a priority CPU queue.
TEST(CounterPin, DeepWriteBackOnFourServers) {
  ExperimentConfig c;
  c.client.nic.queues = 3;
  c.num_servers = 4;
  c.ior.mode = workload::IorMode::kWrite;
  c.ior.transfer_size = 128ull << 10;
  c.ior.total_bytes = 16 * c.ior.transfer_size;
  c.server.cache.capacity_bytes = 64ull << 20;
  c.server.cache.write_back = true;
  c.server.sched.enabled = true;
  c.server.sched.discipline = pfs::SchedDiscipline::kPriority;
  EXPECT_EQ(pin_of(c, kCommonRows), "98f5ec2414efb65e");
}

}  // namespace
}  // namespace saisim
