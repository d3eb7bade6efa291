// The client memory walk. access() settles each line of a range by the
// cheapest source that knows the answer, each in O(1):
//
//   1. hint run  - the core's cache consumes lines held in its sets' tail
//                  or head way (Cache::probe_run), with no set scan;
//   2. fill run  - the owner directory reports the lines no cache holds
//                  (OwnerDirectory::absent_run), enters them all at once
//                  (assign_run) and the walk fills them from DRAM, each
//                  victim picked in O(1), returned in a register
//                  (Cache::Victim) and erased from the directory with the
//                  rest of its page's victims (erase_mask); the run then
//                  books its misses' DRAM from a mask of the ones with a
//                  dirty victim (dram_book_run), in closed form where the
//                  controller allows: a stretch behind its last booking
//                  telescopes, and a tail that drains more than it adds is
//                  summed;
//   3. held run  - otherwise some cache holds the line, and its directory
//                  page (OwnerDirectory::page) names the owner and the way
//                  of every present line after it on the page: this core
//                  (a hit away from both hints, relinked at that way) or
//                  another (a cache-to-cache transfer that drops the line
//                  from that way of the other cache and rewrites the
//                  page's owner and way bytes in place). The run ends at
//                  the first absent line, the page's end or the range's.
//
// Lines are visited in address order, each victim is the one a full LRU
// lookup would pick, and every miss's DRAM booking comes to what one at
// the instant its walk reached it gives, so the result equals a per-line
// probe-then-insert walk bit for bit (DESIGN.md §8 has the arguments). A
// line this core holds is settled the same way (hit, relink to MRU, dirty
// bit) whichever run finds it. No hardware division runs per line: the
// clock at a miss and the DRAM queue penalty divide by run-time constants
// (the core frequency and the DRAM rate) through exact precomputed
// reciprocals (U64Divider).
#include "mem/memory_system.hpp"

#include <algorithm>
#include <bit>

#include "trace/tracer.hpp"

namespace saisim::mem {

namespace {

constexpr u64 kPsPerSecond = 1'000'000'000'000;

/// floor(cycles * 1e12 / hz) picoseconds, carried as a quotient and a
/// remainder so that advancing the cycle count by a fixed step costs an add
/// and a compare instead of a division. Exact:
/// floor((a + b) / d) = floor(a / d) + floor(b / d) + carry, where the
/// carry is 1 exactly when (a mod d) + (b mod d) >= d.
struct CycleClock {
  u64 ps = 0;
  u64 rem = 0;

  /// The clock at `cycles` (non-negative), divided by the precomputed
  /// reciprocal of `hz` while cycles x 10^12 fits 64 bits (below about
  /// 18.4M cycles, every walk in practice), else by one 128-bit division.
  static CycleClock at(i64 cycles, const detail::U64Divider& hz) {
    const auto c = static_cast<u64>(cycles);
    const u64 d = hz.divisor();
    if (c <= UINT64_MAX / kPsPerSecond) {
      const u64 scaled = c * kPsPerSecond;
      const u64 ps = hz.divide(scaled);
      return {ps, scaled - ps * d};
    }
    const u128 scaled = static_cast<u128>(c) * kPsPerSecond;
    const u64 ps = static_cast<u64>(scaled / d);
    return {ps, static_cast<u64>(scaled - static_cast<u128>(ps) * d)};
  }

  void advance(const CycleClock& step, u64 hz) {
    ps += step.ps;
    rem += step.rem;
    if (rem >= hz) {
      rem -= hz;
      ++ps;
    }
  }
};

}  // namespace

MemorySystem::MemorySystem(int num_cores, const CacheConfig& cache_cfg,
                           const MemoryTimings& timings, Frequency core_freq,
                           Bandwidth dram_bandwidth)
    : cache_cfg_(cache_cfg),
      timings_(timings),
      core_freq_(core_freq),
      dram_bw_(dram_bandwidth),
      owner_(static_cast<u64>(num_cores) * cache_cfg.num_lines()) {
  SAISIM_CHECK(num_cores > 0 && num_cores <= OwnerDirectory::kMaxOwners);
  SAISIM_CHECK(core_freq_.hertz() > 0);
  hz_ = detail::U64Divider(static_cast<u64>(core_freq_.hertz()));
  if (!dram_bw_.is_unlimited()) {
    line_xfer_ = dram_bw_.transfer_time(cache_cfg_.line_bytes);
    dram_bps_ =
        detail::U64Divider(static_cast<u64>(dram_bw_.bytes_per_second()));
  }
  caches_.reserve(static_cast<u64>(num_cores));
  for (int i = 0; i < num_cores; ++i) caches_.emplace_back(cache_cfg);
  stats_.resize(static_cast<u64>(num_cores));
}

// dram_bw_.transfer_time(excess), with the division by the DRAM rate done
// by its precomputed reciprocal whenever excess x 10^12 fits 64 bits
// (excesses below about 18 MB), where transfer_time divides in 64 bits.
[[gnu::always_inline]] inline Time MemorySystem::queue_penalty(
    u64 backlog) const {
  if (backlog <= timings_.dram_burst_allowance) return Time::zero();
  const u64 excess = backlog - timings_.dram_burst_allowance;
  if (excess > UINT64_MAX / kPsPerSecond) {
    return dram_bw_.transfer_time(excess);
  }
  return Time::ps(static_cast<i64>(dram_bps_.divide(excess * kPsPerSecond)));
}

// elapsed_ps * bps / 1e12, with the same 64-bit fast path as muldiv:
// inter-booking gaps are short, so the product virtually always fits and
// the division by a constant becomes a multiply.
[[gnu::always_inline]] inline u64 MemorySystem::drained(Time elapsed) const {
  const u128 prod = static_cast<u128>(static_cast<u64>(elapsed.picoseconds())) *
                    static_cast<u64>(dram_bw_.bytes_per_second());
  return prod <= static_cast<u128>(UINT64_MAX)
             ? static_cast<u64>(prod) / kPsPerSecond
             : static_cast<u64>(prod / kPsPerSecond);
}

// Drain the backlog for the time elapsed since the last booking, add
// `bytes`, and return the increment of the queueing penalty. Queueing
// appears only when the controller is genuinely oversubscribed beyond the
// burst allowance, and each booking pays only the increment it causes.
[[gnu::always_inline]] inline Time MemorySystem::dram_enqueue(
    DramState& dram, u64 bytes, Time now) const {
  if (now > dram.last_update) {
    const u64 drain = drained(now - dram.last_update);
    dram.backlog_bytes =
        drain >= dram.backlog_bytes ? 0 : dram.backlog_bytes - drain;
    dram.last_update = now;
  }
  const Time before = queue_penalty(dram.backlog_bytes);
  dram.backlog_bytes += bytes;
  return queue_penalty(dram.backlog_bytes) - before;
}

// A miss books its fill and, if it evicts a dirty line, the write-back, at
// one instant. Two bookings at one instant would drain nothing between
// them, so their penalty increments telescope: P(b + 2L) - P(b) is
// exactly the two-call sum.
[[gnu::always_inline]] inline Time MemorySystem::dram_book_lines(
    DramState& dram, u64 lines, Time now) const {
  dram.busy += line_xfer_ * static_cast<i64>(lines);
  return dram_enqueue(dram, lines * cache_cfg_.line_bytes, now);
}

// A fill run's misses are evenly spaced on the cycle clock: miss k is at
// t_k = base + clock(c_0 + k s) + the penalties of misses 0..k-1, and books
// x_k = one or two lines. Booked one by one, each drains the backlog for
// t_k - L (L the last booking's instant, if t_k > L), adds x_k and pays the
// increment of P. Two stretches of a run take no per-miss steps:
//
//  - Behind the horizon (t_k <= L): nothing drains and L stays, so the
//    stretch's increments telescope to P(b + X) - P(b), X its bytes. t_k
//    is monotone in k, so a binary search finds the first miss past L.
//  - The quiet tail: once a booking that drained leaves b <= A (so it paid
//    nothing, and L is its instant), while one step's drain d(s) covers two
//    lines and A does too, every later miss is s or s + 1 ps after the
//    previous one, drains at least what it adds and stays within A, so pays
//    nothing. Unrolling b <- max(0, b - d_k) + x_k then gives max(x_last,
//    b + sum x - sum d), where the gaps of s + 1 (the carries) are counted
//    off the run's end clock.
//
// Only a miss that drains and still queues is booked on its own. The run
// books on a local copy of the controller's state, so that its stores do
// not alias the geometry and rates it reads.
Time MemorySystem::dram_book_run(u64 lines, u64 dirty, u64 writebacks,
                                 Time base, i64 first_cycles,
                                 i64 step_cycles) {
  const u64 line_bytes = cache_cfg_.line_bytes;
  const u64 allowance = timings_.dram_burst_allowance;
  const CycleClock step = CycleClock::at(step_cycles, hz_);
  const u64 step_drain = drained(Time::ps(static_cast<i64>(step.ps)));
  const bool quiet =
      step_drain >= 2 * line_bytes && allowance >= 2 * line_bytes;
  // Bytes booked by misses [from, to).
  const auto bytes = [&](u64 from, u64 to) {
    const u64 span = to - from;
    const u64 mask = span == 64 ? ~u64{0} : ((u64{1} << span) - 1) << from;
    return (span + static_cast<u64>(std::popcount(dirty & mask))) *
           line_bytes;
  };
  const auto clock_at = [&](u64 k) {
    return CycleClock::at(first_cycles + static_cast<i64>(k) * step_cycles,
                          hz_);
  };
  Time queue = Time::zero();
  // A miss's instant before its own penalty.
  const auto instant = [&](const CycleClock& clock) {
    return base + Time::ps(static_cast<i64>(clock.ps)) + queue;
  };

  DramState dram = dram_;
  dram.busy += line_xfer_ * static_cast<i64>(lines + writebacks);
  CycleClock clock = clock_at(0);
  for (u64 k = 0; k < lines;) {
    const Time t = instant(clock);
    if (t <= dram.last_update) {
      // Behind the horizon: misses [k, hi) book at or before L.
      const Time before = queue_penalty(dram.backlog_bytes);
      const auto behind = [&](u64 i) {
        return instant(clock_at(i)) +
                   queue_penalty(dram.backlog_bytes + bytes(k, i)) - before <=
               dram.last_update;
      };
      u64 lo = k, hi = lines;  // t_lo <= L; hi == lines or t_hi > L
      if (lines - 1 > k) {
        (behind(lines - 1) ? lo : hi) = lines - 1;
      }
      while (hi - lo > 1) {
        const u64 mid = lo + (hi - lo) / 2;
        (behind(mid) ? lo : hi) = mid;
      }
      dram.backlog_bytes += bytes(k, hi);
      queue += queue_penalty(dram.backlog_bytes) - before;
      k = hi;
      if (k < lines) clock = clock_at(k);
      continue;
    }
    const u64 x = (1 + ((dirty >> k) & 1)) * line_bytes;
    const u64 drain = drained(t - dram.last_update);
    dram.backlog_bytes =
        drain >= dram.backlog_bytes ? 0 : dram.backlog_bytes - drain;
    dram.last_update = t;
    if (quiet && dram.backlog_bytes + x <= allowance) {
      // The quiet tail: misses (k, lines) each pay nothing.
      u64 b = dram.backlog_bytes + x;
      if (const u64 m = lines - 1 - k; m > 0) {
        const Time end = instant(clock_at(lines - 1));
        const auto carries =
            static_cast<u64>((end - t).picoseconds()) - m * step.ps;
        const u64 drain_sum =
            (m - carries) * step_drain +
            carries * drained(Time::ps(static_cast<i64>(step.ps + 1)));
        const u64 added = bytes(k + 1, lines);
        const u64 last = (1 + ((dirty >> (lines - 1)) & 1)) * line_bytes;
        b = b + added > drain_sum ? b + added - drain_sum : 0;
        b = std::max(b, last);
        dram.last_update = end;
      }
      dram.backlog_bytes = b;
      break;
    }
    const Time before = queue_penalty(dram.backlog_bytes);
    dram.backlog_bytes += x;
    queue += queue_penalty(dram.backlog_bytes) - before;
    clock.advance(step, hz_.divisor());
    ++k;
  }
  dram_ = dram;
  return queue;
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
  // Consecutive fill-run misses are `fill_cycles` apart on the drain clock,
  // which sees the access's own progression at a miss: latency cycles and
  // queueing accrued up to it.
  const i64 fill_cycles = reuse_cycles + timings_.dram_access.count();

  // Misses fill consecutive lines and a streamed buffer's LRU victims leave
  // in address order, so each stream keeps its own directory page hint.
  OwnerDirectory::Cursor fill_at, evict_at;
  LineAddr line = first;
  while (line <= last) {
    // Hint run: lines this cache holds in a hint way are hits, with the set
    // cursor carried along (streaming re-reads take this path for the
    // whole range).
    const u64 run = cache.probe_run(line, last - line + 1, is_write);
    hits += run;
    cycles += static_cast<i64>(run) * (reuse_cycles + hit_cycles);
    line += run;
    if (line > last) break;

    // Fill run: lines no cache holds, up to the directory page's end, come
    // from DRAM. Nothing the loop does can make a later line of the run
    // present, so one mask read settles them all and one mask write enters
    // them; the loop records the way each line takes. The victims leave the
    // directory a page at a time: each joins a (page, mask) batch, which is
    // erased when the next victim is on another page and at the run's end.
    // Nothing reads the directory in between, and the line being filled
    // keeps the run's page, and so `ways`, alive. The run's DRAM bookings
    // depend on the cache only through which misses evict a dirty line, so
    // the loop records those in a mask (a run stays on one page, at most 64
    // lines) and the run books them all afterwards.
    const u64 absent = owner_.absent_run(fill_at, line, last - line + 1);
    if (absent > 0) {
      u8* const ways = owner_.assign_run(fill_at, line, absent, core);
      u64 victim_page = 0, victim_mask = 0;
      u64 dirty = 0, run_writebacks = 0;
      for (u64 i = 0; i < absent; ++i, ++line) {
        u32 way = 0;
        if (const Cache::Victim victim = cache.fill(line, is_write, way)) {
          ++evictions;
          const u64 page = OwnerDirectory::page_of(victim.line());
          if (page != victim_page) {
            if (victim_mask != 0) {
              owner_.erase_mask(evict_at, victim_page, victim_mask);
            }
            victim_page = page;
            victim_mask = 0;
          }
          victim_mask |= OwnerDirectory::bit(victim.line());
          if (victim.dirty()) {
            ++run_writebacks;
            dirty |= u64{1} << i;
          }
        }
        ways[i] = static_cast<u8>(way);
      }
      if (victim_mask != 0) {
        owner_.erase_mask(evict_at, victim_page, victim_mask);
      }
      if (dram_limited) {
        dram_queue += dram_book_run(absent, dirty, run_writebacks,
                                    now + dram_queue, cycles + reuse_cycles,
                                    fill_cycles);
      }
      writebacks += run_writebacks;
      cycles += static_cast<i64>(absent) * fill_cycles;
      misses_dram += absent;
      continue;
    }

    // Held run: some cache holds `line`. Its directory page names, for it
    // and for each present line after it up to the page's end or `last`,
    // the owner and the way that holds it, so one page settles them all in
    // address order. A line this core holds away from both hints is a hit
    // relinked at its way. Another core's line is a cache-to-cache
    // transfer that drops it from that core's way and rewrites the owner
    // and way bytes in place. A transfer's fill may evict a later line of
    // the page (this core's own), so the presence mask is re-read after
    // each one and the run stops at the first absent line.
    OwnerDirectory::Page& page = owner_.page(fill_at, line);
    u64 at_line = OwnerDirectory::offset(line);
    const u64 end = at_line + std::min(OwnerDirectory::kPageLines - at_line,
                                       last - line + 1);
    u64 present = page.present;
    do {
      cycles += reuse_cycles;
      const CoreId prev = page.owner[at_line];
      if (prev == core) {
        // touch_way checks that the recorded way holds the line.
        cache.touch_way(line, page.way[at_line], is_write);
        ++hits;
        cycles += hit_cycles;
      } else {
        // Dirty data moves with ownership, so no write-back to DRAM
        // happens for the moved line. Only a dirty victim books DRAM, at
        // the move's instant.
        const i64 move_cycles = cycles;
        caches_[static_cast<u64>(prev)].invalidate_way(line,
                                                       page.way[at_line]);
        ++misses_c2c;
        cycles += timings_.c2c_transfer.count();
        u32 filled = 0;
        if (const Cache::Victim victim = cache.fill(line, is_write, filled)) {
          ++evictions;
          // `line` is present, so the erase cannot release its page.
          SAISIM_CHECK_MSG(owner_.erase(evict_at, victim.line()) == core,
                           "owner map out of sync with cache");
          if (victim.dirty()) {
            ++writebacks;
            if (dram_limited) {
              const Time at =
                  now +
                  Time::ps(static_cast<i64>(
                      CycleClock::at(move_cycles, hz_).ps)) +
                  dram_queue;
              dram_queue += dram_book_lines(dram_, 1, at);
            }
          }
        }
        page.owner[at_line] = static_cast<u8>(core);
        page.way[at_line] = static_cast<u8>(filled);
        present = page.present;
      }
      ++line;
      ++at_line;
    } while (at_line < end && ((present >> at_line) & 1) != 0);
  }
  c2c_transfers_ += misses_c2c;
  dram_line_reads_ += misses_dram;
  dram_line_writes_ += writebacks;

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
      first, last, [this](LineAddr line, CoreId prev, u32 way) {
        caches_[static_cast<u64>(prev)].invalidate_way(line, way);
      });
  SAISIM_TRACE_EVENT(util::Subsystem::kMem, trace::EventType::kDmaWrite, now,
                     -1, -1, -1, static_cast<i64>(bytes),
                     static_cast<i64>(invalidated));
  if (dram_bw_.is_unlimited()) return Time::zero();
  dram_.busy += dram_bw_.transfer_time(bytes);
  return dram_enqueue(dram_, bytes, now);
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
