// The paper's §VI cache-data-migration-cost simulation (Figure 13/14).
//
// To expose the full potential of source-aware scheduling, the paper
// removes the NIC and reads "strips" from a RAM disk at memory bandwidth
// (4x DDR2-667 ~= 5333 MB/s):
//   * Si-SAIs       — a reader/combiner pair that stays on one core, so the
//                     combiner consumes strips out of the shared private
//                     cache (thread pair in the paper);
//   * Si-Irqbalance — reader and combiner on different cores (independent
//                     processes in the paper), so every combined line pays
//                     a cache-to-cache migration.
//
// The RAM disk is simply the DRAM controller of the MemorySystem: reading
// a fresh file region is a stream of DRAM fills bounded by the configured
// memory bandwidth, exactly the resource the paper's simulation saturates.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu_system.hpp"
#include "mem/memory_system.hpp"
#include "sim/simulation.hpp"
#include "util/reflect.hpp"

namespace saisim::memsim {

struct MemsimConfig {
  int num_cores = 8;
  Frequency core_freq = Frequency::ghz(2.7);
  mem::CacheConfig cache{};
  /// Sequential RAM-disk streams ride the hardware prefetchers, so the
  /// effective per-line fill latency is far below a dependent-load miss;
  /// 60 cycles/line calibrates a single core's stream rate to DDR2-era
  /// streaming throughput. Cross-core transfers are not prefetchable.
  mem::MemoryTimings timings{.l2_hit = Cycles{15},
                             .dram_access = Cycles{60},
                             .c2c_transfer = Cycles{500}};
  /// 4x 2GB DDR2-667 single rank (paper §VI).
  Bandwidth ram_disk_bandwidth = Bandwidth::mb_per_sec(5333);

  /// Concurrent application pairs (the paper's x-axis).
  int num_pairs = 4;
  /// Strips are read at the PFS strip size; a transfer is combined at once.
  u64 strip_size = 64ull << 10;
  u64 transfer_size = 1ull << 20;  // "verified to be the best buffer size"
  /// Size of each pair's RAM-disk file region (cycled through; sized well
  /// beyond the private caches).
  u64 bytes_per_pair = 64ull << 20;
  /// Pairs run continuously; throughput is measured over the steady-state
  /// window [warmup, duration] to avoid straggler/tail artifacts when the
  /// pair count does not divide the core count.
  Time warmup = Time::ms(10);
  Time duration = Time::ms(60);

  /// Reader CPU work per byte (file-system + copy instruction overhead).
  i64 reader_centicycles_per_byte = 150;
  /// Combiner CPU work per byte (merge + checksum).
  i64 combiner_centicycles_per_byte = 150;
  int combiner_reuse_per_line = 1;

  /// true = Si-SAIs (pair shares a core), false = Si-Irqbalance.
  bool source_aware = true;
  /// Si-Irqbalance runs reader and combiner as *independent processes*
  /// (paper §VI), so the strips cross an IPC segment: the reader writes an
  /// extra copy, the combiner pulls it cache-to-cache. Si-SAIs threads
  /// share the address space and skip this. Disable to isolate pure
  /// placement effects (ablation).
  bool ipc_copy_between_processes = true;

  u64 seed = 99;
  Time max_sim_time = Time::sec(300);
};

template <class V>
void describe(V& v, MemsimConfig& c) {
  namespace r = util::reflect;
  v.field("num_cores", c.num_cores, r::in_range(1, 1024));
  v.field("core_freq", c.core_freq, r::positive(), "Hz");
  v.group("cache", c.cache);
  v.group("timings", c.timings);
  v.field("ram_disk_bandwidth", c.ram_disk_bandwidth, r::positive(), "B/s");
  v.field("num_pairs", c.num_pairs, r::in_range(1, 4096));
  v.field("strip_size", c.strip_size, r::pow2_at_least(512), "B");
  v.field("transfer_size", c.transfer_size, r::positive(), "B");
  v.field("bytes_per_pair", c.bytes_per_pair, r::positive(), "B");
  v.field("warmup", c.warmup, r::non_negative());
  v.field("duration", c.duration, r::positive());
  v.field("reader_centicycles_per_byte", c.reader_centicycles_per_byte,
          r::non_negative(), "centicycles");
  v.field("combiner_centicycles_per_byte", c.combiner_centicycles_per_byte,
          r::non_negative(), "centicycles");
  v.field("combiner_reuse_per_line", c.combiner_reuse_per_line,
          r::non_negative());
  v.field("source_aware", c.source_aware);
  v.field("ipc_copy_between_processes", c.ipc_copy_between_processes);
  v.field("seed", c.seed, r::non_negative());
  v.field("max_sim_time", c.max_sim_time, r::positive());
  v.invariant(c.warmup < c.duration,
              "the [warmup, duration] measurement window must be non-empty");
  v.invariant(c.transfer_size >= c.strip_size,
              "transfer_size must cover at least one strip");
}

struct MemsimResult {
  double bandwidth_mbps = 0.0;
  double l2_miss_rate = 0.0;
  double cpu_utilization = 0.0;
  u64 c2c_transfers = 0;
  Time elapsed = Time::zero();
  u64 total_bytes = 0;
};

/// Run one §VI configuration to completion.
MemsimResult run_memsim(const MemsimConfig& cfg);

/// Run both placements and report the paper's speed-up.
struct MemsimComparison {
  MemsimResult irqbalance;
  MemsimResult sais;
  double bandwidth_speedup_pct = 0.0;
  double miss_rate_reduction_pct = 0.0;
};
MemsimComparison compare_memsim(MemsimConfig cfg);

/// Derive the comparison percentages from two finished runs — split out so
/// callers with their own execution path (e.g. the fig. 14 bench's
/// fingerprint-keyed result cache) share the arithmetic.
MemsimComparison make_memsim_comparison(MemsimResult irqbalance,
                                        MemsimResult sais);

}  // namespace saisim::memsim
