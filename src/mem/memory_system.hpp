// The client node's memory hierarchy: per-core private caches, a
// single-owner coherence directory, and a shared DRAM controller with
// finite bandwidth.
//
// Coherence is MESI-lite with the migratory-sharing optimisation: a line
// lives in at most one private cache at a time, and an access from another
// core performs a cache-to-cache transfer that moves ownership. This is
// exactly the "data movement among caches" cost the paper's model charges
// as M per strip (and it makes M vs P explicit and sweepable).
#pragma once

#include <vector>

#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "mem/owner_directory.hpp"
#include "util/reflect.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace saisim::mem {

/// Per-line-operation cycle costs, converted to time via the core frequency.
struct MemoryTimings {
  Cycles l2_hit{15};
  /// DRAM access latency (fill from memory on a miss).
  Cycles dram_access{250};
  /// Cache-to-cache transfer between two cores' private caches: probe
  /// broadcast + cross-die HyperTransport hop on the paper's dual-socket
  /// Opterons, ~260 ns under load. The paper's premise is that this
  /// dominates per-strip protocol processing (M >> P); the migration-cost
  /// ablation bench sweeps it.
  Cycles c2c_transfer{700};
  /// Backlog the DRAM controller absorbs before queueing delays kick in.
  /// Work items evaluate their memory cost up front, so traffic that in
  /// reality spreads over the item's execution is booked in a burst; the
  /// allowance keeps that artifact from charging phantom queueing while
  /// still exposing genuine aggregate oversubscription (the §VI RAM-disk
  /// ceiling).
  u64 dram_burst_allowance = 256ull << 10;
};

template <class V>
void describe(V& v, MemoryTimings& t) {
  namespace r = util::reflect;
  v.field("l2_hit", t.l2_hit, r::non_negative());
  v.field("dram_access", t.dram_access, r::non_negative());
  v.field("c2c_transfer", t.c2c_transfer, r::non_negative());
  v.field("dram_burst_allowance", t.dram_burst_allowance, r::non_negative(),
          "B");
}

struct CoreCacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses_dram = 0;  // filled from memory
  u64 misses_c2c = 0;   // filled from another core's cache
  u64 evictions = 0;
  u64 writebacks = 0;

  u64 misses() const { return misses_dram + misses_c2c; }
  double miss_rate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses()) / static_cast<double>(accesses);
  }

  CoreCacheStats& operator+=(const CoreCacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses_dram += o.misses_dram;
    misses_c2c += o.misses_c2c;
    evictions += o.evictions;
    writebacks += o.writebacks;
    return *this;
  }
};

class MemorySystem {
 public:
  MemorySystem(int num_cores, const CacheConfig& cache_cfg,
               const MemoryTimings& timings, Frequency core_freq,
               Bandwidth dram_bandwidth);

  int num_cores() const { return static_cast<int>(caches_.size()); }
  const MemoryTimings& timings() const { return timings_; }

  enum class AccessType { kRead, kWrite };

  /// Access `bytes` at `addr` from `core` at simulated time `now`.
  /// Returns the total stall time for the access (per-line costs plus any
  /// DRAM-controller queueing). Updates cache state and statistics.
  ///
  /// `reuse_per_line` models block-local processing (checksum, cipher
  /// rounds): each line is re-accessed that many times while still hot, so
  /// every reuse is a guaranteed hit. This is how real per-block compute
  /// behaves, as opposed to a second full-buffer pass (which would LRU-
  /// thrash any buffer larger than the cache).
  Time access(CoreId core, Address addr, u64 bytes, AccessType type, Time now,
              int reuse_per_line = 0);

  /// Device DMA into memory (NIC RX payload landing, no direct cache
  /// access — the testbed NIC has no DCA). Invalidates stale cached copies
  /// and occupies DRAM bandwidth. Returns the DMA completion delay.
  Time dma_write(Address addr, u64 bytes, Time now);

  /// True if every line of [addr, addr+bytes) currently resides in `core`'s
  /// private cache (used by tests to verify the locality mechanism).
  bool resident(CoreId core, Address addr, u64 bytes) const;

  const CoreCacheStats& core_stats(CoreId core) const {
    return stats_[static_cast<u64>(core)];
  }
  CoreCacheStats total_stats() const;

  u64 c2c_transfers() const { return c2c_transfers_; }
  u64 dram_line_reads() const { return dram_line_reads_; }
  u64 dram_line_writes() const { return dram_line_writes_; }
  /// Cumulative time the DRAM controller spent busy (for saturation checks).
  Time dram_busy_time() const { return dram_.busy; }

 private:
  /// The DRAM controller's leaky bucket: the backlog drains at the DRAM
  /// rate.
  struct DramState {
    Time last_update = Time::zero();
    u64 backlog_bytes = 0;
    Time busy = Time::zero();
  };
  /// The queueing penalty of a backlog: the transfer time of its excess
  /// over the burst allowance. Bandwidth must be limited.
  Time queue_penalty(u64 backlog) const;
  /// Bytes the controller drains in `elapsed` (positive).
  u64 drained(Time elapsed) const;
  /// Add `bytes` to `dram`'s backlog at `now`; returns the queueing delay
  /// the booking adds. Bandwidth must be limited.
  Time dram_enqueue(DramState& dram, u64 bytes, Time now) const;
  /// Book `lines` cache lines (busy time and backlog) at `now`.
  Time dram_book_lines(DramState& dram, u64 lines, Time now) const;
  /// Book a fill run's misses, as dram_book_lines would one by one: miss k
  /// books one line, two if bit k of `dirty` is set (its victim's
  /// write-back), at `base` plus the clock at `first_cycles + k *
  /// step_cycles` plus the penalties booked before it. Returns the run's
  /// queueing delay. Bandwidth must be limited.
  Time dram_book_run(u64 lines, u64 dirty, u64 writebacks, Time base,
                     i64 first_cycles, i64 step_cycles);

  CacheConfig cache_cfg_;
  MemoryTimings timings_;
  Frequency core_freq_;
  Bandwidth dram_bw_;

  std::vector<Cache> caches_;
  std::vector<CoreCacheStats> stats_;
  /// line -> owning core, for lines resident in some private cache.
  /// Reserved for the machine's total line count; its pages are recycled,
  /// so the access path allocates only while the pool first fills.
  OwnerDirectory owner_;

  /// Reciprocals of the core frequency and the DRAM rate (the latter only
  /// if limited): the walk's per-line conversions multiply, not divide.
  detail::U64Divider hz_;
  detail::U64Divider dram_bps_;
  /// Serialization time of one cache line (precomputed; zero if unlimited).
  Time line_xfer_ = Time::zero();
  DramState dram_;
  u64 c2c_transfers_ = 0;
  u64 dram_line_reads_ = 0;
  u64 dram_line_writes_ = 0;
};

}  // namespace saisim::mem
