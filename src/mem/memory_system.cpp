#include "mem/memory_system.hpp"

#include <algorithm>

#include "trace/tracer.hpp"

namespace saisim::mem {

MemorySystem::MemorySystem(int num_cores, const CacheConfig& cache_cfg,
                           const MemoryTimings& timings, Frequency core_freq,
                           Bandwidth dram_bandwidth)
    : cache_cfg_(cache_cfg),
      timings_(timings),
      core_freq_(core_freq),
      dram_bw_(dram_bandwidth),
      owner_(static_cast<u64>(num_cores) * cache_cfg.num_lines()) {
  SAISIM_CHECK(num_cores > 0);
  if (!dram_bw_.is_unlimited()) {
    line_xfer_ = dram_bw_.transfer_time(cache_cfg_.line_bytes);
  }
  caches_.reserve(static_cast<u64>(num_cores));
  for (int i = 0; i < num_cores; ++i) caches_.emplace_back(cache_cfg);
  stats_.resize(static_cast<u64>(num_cores));
}

Time MemorySystem::dram_occupy(u64 bytes, Time now) {
  if (dram_bw_.is_unlimited()) return Time::zero();
  auto queue_penalty = [this](u64 backlog) {
    return backlog <= timings_.dram_burst_allowance
               ? Time::zero()
               : dram_bw_.transfer_time(backlog -
                                        timings_.dram_burst_allowance);
  };
  // Drain the backlog for the wall time elapsed since the last booking.
  if (now > dram_last_update_) {
    const Time elapsed = now - dram_last_update_;
    // elapsed_ps * bps / 1e12, with the same 64-bit fast path as muldiv:
    // inter-booking gaps are short, so the product virtually always fits
    // and the division by a constant becomes a multiply.
    const u128 prod =
        static_cast<u128>(static_cast<u64>(elapsed.picoseconds())) *
        static_cast<u64>(dram_bw_.bytes_per_second());
    const u64 drained =
        prod <= static_cast<u128>(UINT64_MAX)
            ? static_cast<u64>(prod) / 1'000'000'000'000ull
            : static_cast<u64>(prod / 1'000'000'000'000ull);
    dram_backlog_bytes_ = drained >= dram_backlog_bytes_
                              ? 0
                              : dram_backlog_bytes_ - drained;
    dram_last_update_ = now;
  }
  // Queueing appears only when the controller is genuinely oversubscribed
  // beyond the burst allowance, and each booking pays only the *increment*
  // of the penalty it causes.
  const Time before = queue_penalty(dram_backlog_bytes_);
  dram_backlog_bytes_ += bytes;
  // The access path books one cache line per call; its serialization time
  // is precomputed so the hot path pays no division here.
  dram_busy_ += bytes == cache_cfg_.line_bytes ? line_xfer_
                                               : dram_bw_.transfer_time(bytes);
  return queue_penalty(dram_backlog_bytes_) - before;
}

Time MemorySystem::access(CoreId core, Address addr, u64 bytes,
                          AccessType type, Time now, int reuse_per_line) {
  SAISIM_CHECK(core >= 0 && core < num_cores());
  SAISIM_CHECK(bytes > 0);
  SAISIM_CHECK(reuse_per_line >= 0);
  Cache& cache = caches_[static_cast<u64>(core)];

  const u64 line_bytes = cache_cfg_.line_bytes;
  const LineAddr first = addr / line_bytes;
  const LineAddr last = (addr + bytes - 1) / line_bytes;
  const u64 n_lines = last - first + 1;

  const bool is_write = type == AccessType::kWrite;
  // Block-local reuse: guaranteed hits while a line is hot, charged per
  // line *in walk order* (the cycle total at each miss feeds the DRAM
  // drain clock below, so the order of accrual is part of the model).
  const i64 hit_cycles = timings_.l2_hit.count();
  const i64 reuse_cycles = hit_cycles * reuse_per_line;

  i64 cycles = 0;
  Time dram_queue = Time::zero();
  u64 hits = 0, misses_c2c = 0, misses_dram = 0;
  u64 evictions = 0, writebacks = 0;
  const bool dram_limited = !dram_bw_.is_unlimited();

  // Misses fill consecutive lines and a streamed buffer's LRU victims leave
  // in address order, so each stream keeps its own directory page hint.
  OwnerDirectory::Cursor fill_at, evict_at;
  LineAddr line = first;
  while (line <= last) {
    // Batched walk: consume a run of consecutive hits in one cache scan
    // with the set cursor carried along (streaming re-reads take this
    // path for the whole range). When the run stops at a miss, the same
    // scan has already selected the victim slot for that line.
    Cache::PendingInsert pending;
    const u64 run = cache.probe_run(line, last - line + 1, is_write, &pending);
    hits += run;
    cycles += static_cast<i64>(run) * (reuse_cycles + hit_cycles);
    line += run;
    if (line > last) break;

    // Miss: find the line. Either another core's cache owns it (c2c
    // transfer, moving ownership) or it comes from DRAM. The controller's
    // drain clock advances with the access's own progression (latency
    // cycles spent so far plus accrued queueing).
    cycles += reuse_cycles;
    // The drain clock sees the access's own progression — latency cycles
    // and queueing accrued up to this miss. Materialising that Time costs
    // a 128-bit division, so it is computed at most once per miss, and
    // only if a bandwidth-limited controller will actually consume it.
    Time progressed = Time::zero();
    bool progressed_set = false;
    const i64 miss_cycles = cycles;
    const Time miss_queue = dram_queue;
    const auto progress_now = [&] {
      if (!progressed_set) {
        progressed =
            now + core_freq_.duration(Cycles{miss_cycles}) + miss_queue;
        progressed_set = true;
      }
      return progressed;
    };
    // One directory probe settles both the lookup and the ownership move.
    const CoreId prev = owner_.assign(fill_at, line, core);
    if (prev != kNoCore) {
      SAISIM_CHECK_MSG(prev != core, "owner map out of sync with cache");
      const auto inv = caches_[static_cast<u64>(prev)].invalidate(line);
      SAISIM_CHECK(inv.was_present);
      ++misses_c2c;
      ++c2c_transfers_;
      cycles += timings_.c2c_transfer.count();
      // Dirty data moves cache-to-cache; ownership transfers with it, so
      // no writeback to DRAM happens here.
    } else {
      ++misses_dram;
      ++dram_line_reads_;
      cycles += timings_.dram_access.count();
      if (dram_limited) dram_queue += dram_occupy(line_bytes, progress_now());
    }

    cache.commit_insert(pending, line, is_write);
    if (pending.evicted) {
      ++evictions;
      owner_.erase(evict_at, pending.evicted->line);
      if (pending.evicted->dirty) {
        ++writebacks;
        ++dram_line_writes_;
        if (dram_limited)
          dram_queue += dram_occupy(line_bytes, progress_now());
      }
    }
    ++line;
  }

  // One trace event per access call (not per line), so the tracer's cost
  // stays off the per-line walk even when enabled.
  if (misses_c2c + misses_dram > 0) {
    SAISIM_TRACE_EVENT(util::Subsystem::kMem, trace::EventType::kCacheMiss,
                       now, -1, core, -1, static_cast<i64>(n_lines),
                       static_cast<i64>(misses_c2c),
                       static_cast<i64>(misses_dram));
  }
  if (misses_c2c > 0) {
    SAISIM_TRACE_EVENT(util::Subsystem::kMem,
                       trace::EventType::kOwnerTransfer, now, -1, core, -1,
                       static_cast<i64>(misses_c2c));
  }

  // Stats are accumulated in locals above and booked once per call.
  CoreCacheStats& st = stats_[static_cast<u64>(core)];
  const u64 reuse = static_cast<u64>(reuse_per_line);
  st.accesses += n_lines * (1 + reuse);
  st.hits += n_lines * reuse + hits;
  st.misses_c2c += misses_c2c;
  st.misses_dram += misses_dram;
  st.evictions += evictions;
  st.writebacks += writebacks;

  return core_freq_.duration(Cycles{cycles}) + dram_queue;
}

Time MemorySystem::dma_write(Address addr, u64 bytes, Time now) {
  SAISIM_CHECK(bytes > 0);
  const u64 line_bytes = cache_cfg_.line_bytes;
  const LineAddr first = addr / line_bytes;
  const LineAddr last = (addr + bytes - 1) / line_bytes;

  // Invalidate any stale cached copies (coherent DMA). The directory sweeps
  // the range a page at a time and reports only the lines some cache holds.
  const u64 invalidated = owner_.erase_range(
      first, last, [this](LineAddr line, CoreId prev) {
        caches_[static_cast<u64>(prev)].invalidate(line);
      });
  SAISIM_TRACE_EVENT(util::Subsystem::kMem, trace::EventType::kDmaWrite, now,
                     -1, -1, -1, static_cast<i64>(bytes),
                     static_cast<i64>(invalidated));
  return dram_occupy(bytes, now);
}

bool MemorySystem::resident(CoreId core, Address addr, u64 bytes) const {
  SAISIM_CHECK(core >= 0 && core < num_cores());
  const Cache& cache = caches_[static_cast<u64>(core)];
  const u64 line_bytes = cache_cfg_.line_bytes;
  const LineAddr first = addr / line_bytes;
  const LineAddr last = (addr + bytes - 1) / line_bytes;
  for (LineAddr line = first; line <= last; ++line) {
    if (!cache.contains(line)) return false;
  }
  return true;
}

CoreCacheStats MemorySystem::total_stats() const {
  CoreCacheStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

}  // namespace saisim::mem
