// Seeded model check of MemorySystem against a reference walk that settles
// every line by a full set scan and books DRAM once per line.
//
// MemorySystem::access settles a line by the cheapest source that knows
// the answer: the cache's two hint ways, the owner directory's presence
// mask (a whole run of absent lines at once), or a set scan for a line the
// directory says this core holds. It books a miss's fill and dirty
// write-back in one call. The reference below is the walk written the
// plain way: probe each line with a scan, pick the victim by LRU stamp,
// look the line up in an ordered owner map, and book the fill and the
// write-back one line at a time. Both must agree on the returned stall,
// every counter, the DRAM controller's busy time and every line's
// residency after every step, over random multi-line reads and writes
// with block reuse, DMA landings, 1-8 cores, direct-mapped to 64-way
// geometries, and unlimited or oversubscribed DRAM. Two cases add accesses
// long enough that cycles x 10^12 passes 2^64 inside them, where
// Frequency::duration leaves its 64-bit fast path and the walk's carried
// fill-run clock must still agree with it; one of them runs the shipped
// 5333 MB/s controller past its 256 KiB allowance, so the walk's reciprocal
// queue penalty is checked against Bandwidth::transfer_time.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mem/memory_system.hpp"
#include "util/rng.hpp"

namespace saisim::mem {
namespace {

constexpr Frequency kFreq = Frequency::ghz(1.3);
constexpr u64 kLine = 64;

MemoryTimings timings(u64 burst_allowance) {
  return MemoryTimings{.l2_hit = Cycles{12},
                       .dram_access = Cycles{230},
                       .c2c_transfer = Cycles{610},
                       .dram_burst_allowance = burst_allowance};
}

/// The walk specified line by line: a stamp-LRU tag store per core, an
/// ordered owner map, and a leaky-bucket DRAM booking per line.
class ReferenceWalk {
 public:
  ReferenceWalk(int cores, const CacheConfig& cfg, const MemoryTimings& t,
                Bandwidth dram)
      : ways_(cfg.ways),
        sets_(cfg.num_sets()),
        t_(t),
        dram_(dram),
        caches_(static_cast<u64>(cores),
                std::vector<Entry>(cfg.num_lines())),
        stats_(static_cast<u64>(cores)) {}

  Time access(CoreId core, Address addr, u64 bytes, bool write, Time now,
              int reuse) {
    const LineAddr first = addr / kLine;
    const LineAddr last = (addr + bytes - 1) / kLine;
    const i64 hit = t_.l2_hit.count();
    i64 cycles = 0;
    Time queue = Time::zero();
    CoreCacheStats& st = stats_[static_cast<u64>(core)];
    for (LineAddr line = first; line <= last; ++line) {
      max_cycles_ = std::max(max_cycles_, cycles);
      st.accesses += 1 + static_cast<u64>(reuse);
      st.hits += static_cast<u64>(reuse);
      cycles += hit * reuse;
      if (Entry* e = find(core, line)) {
        e->stamp = ++clock_;
        e->dirty |= write;
        ++st.hits;
        cycles += hit;
        continue;
      }
      const Time at = now + kFreq.duration(Cycles{cycles}) + queue;
      const auto it = owner_.find(line);
      if (it != owner_.end()) {
        EXPECT_NE(it->second, core);
        find(it->second, line)->valid = false;
        ++st.misses_c2c;
        ++c2c_;
        cycles += t_.c2c_transfer.count();
        it->second = core;
      } else {
        ++st.misses_dram;
        ++reads_;
        cycles += t_.dram_access.count();
        queue += occupy(kLine, at);
        owner_.emplace(line, core);
      }
      Entry& victim = pick_victim(core, line);
      if (victim.valid) {
        ++st.evictions;
        owner_.erase(victim.line);
        if (victim.dirty) {
          ++st.writebacks;
          ++writes_;
          queue += occupy(kLine, at);
        }
      }
      victim = Entry{line, ++clock_, true, write};
    }
    return kFreq.duration(Cycles{cycles}) + queue;
  }

  Time dma_write(Address addr, u64 bytes, Time now) {
    const LineAddr first = addr / kLine;
    const LineAddr last = (addr + bytes - 1) / kLine;
    for (auto it = owner_.lower_bound(first);
         it != owner_.end() && it->first <= last;) {
      find(it->second, it->first)->valid = false;
      it = owner_.erase(it);
    }
    return occupy(bytes, now);
  }

  bool resident(CoreId core, LineAddr line) {
    return find(core, line) != nullptr;
  }
  const CoreCacheStats& stats(CoreId core) const {
    return stats_[static_cast<u64>(core)];
  }
  u64 c2c() const { return c2c_; }
  u64 reads() const { return reads_; }
  u64 writes() const { return writes_; }
  Time busy() const { return busy_; }
  Time queued() const { return queued_; }
  /// Bookings that found the backlog already past the allowance.
  u64 queued_on_backlog() const { return queued_on_backlog_; }
  /// The largest cycle count any access reached at a line.
  i64 max_cycles() const { return max_cycles_; }

 private:
  struct Entry {
    LineAddr line = 0;
    u64 stamp = 0;
    bool valid = false;
    bool dirty = false;
  };

  Entry* set_of(CoreId core, LineAddr line) {
    return &caches_[static_cast<u64>(core)][(line % sets_) * ways_];
  }
  Entry* find(CoreId core, LineAddr line) {
    Entry* set = set_of(core, line);
    for (u64 w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].line == line) return &set[w];
    }
    return nullptr;
  }
  /// First invalid way, else the smallest stamp.
  Entry& pick_victim(CoreId core, LineAddr line) {
    Entry* set = set_of(core, line);
    Entry* victim = &set[0];
    for (u64 w = 0; w < ways_; ++w) {
      if (!set[w].valid) return set[w];
      if (set[w].stamp < victim->stamp) victim = &set[w];
    }
    return *victim;
  }

  /// One booking: drain for the time since the last one, then charge the
  /// increment of the queueing penalty this booking causes.
  Time occupy(u64 bytes, Time now) {
    if (dram_.is_unlimited()) return Time::zero();
    const u64 allowance = t_.dram_burst_allowance;
    const auto penalty = [&](u64 backlog) {
      return backlog <= allowance ? Time::zero()
                                  : dram_.transfer_time(backlog - allowance);
    };
    if (now > last_) {
      const auto drained = static_cast<u64>(
          static_cast<i128>((now - last_).picoseconds()) *
          dram_.bytes_per_second() / 1'000'000'000'000);
      backlog_ = drained >= backlog_ ? 0 : backlog_ - drained;
      last_ = now;
    }
    const Time before = penalty(backlog_);
    if (before > Time::zero()) ++queued_on_backlog_;
    backlog_ += bytes;
    busy_ += dram_.transfer_time(bytes);
    const Time added = penalty(backlog_) - before;
    queued_ += added;
    return added;
  }

  u64 ways_;
  u64 sets_;
  MemoryTimings t_;
  Bandwidth dram_;
  std::vector<std::vector<Entry>> caches_;
  std::vector<CoreCacheStats> stats_;
  std::map<LineAddr, CoreId> owner_;
  u64 clock_ = 0;
  u64 c2c_ = 0, reads_ = 0, writes_ = 0;
  Time last_ = Time::zero();
  u64 backlog_ = 0;
  Time busy_ = Time::zero();
  Time queued_ = Time::zero();
  u64 queued_on_backlog_ = 0;
  i64 max_cycles_ = 0;
};

void expect_same_stats(const CoreCacheStats& got, const CoreCacheStats& want,
                       int step, CoreId core) {
  ASSERT_EQ(got.accesses, want.accesses) << "step " << step << " core " << core;
  ASSERT_EQ(got.hits, want.hits) << "step " << step << " core " << core;
  ASSERT_EQ(got.misses_dram, want.misses_dram)
      << "step " << step << " core " << core;
  ASSERT_EQ(got.misses_c2c, want.misses_c2c)
      << "step " << step << " core " << core;
  ASSERT_EQ(got.evictions, want.evictions)
      << "step " << step << " core " << core;
  ASSERT_EQ(got.writebacks, want.writebacks)
      << "step " << step << " core " << core;
}

struct WalkCase {
  int cores;
  u64 sets;
  u32 ways;
  bool limited;  // DRAM at dram_mbps with a burst allowance of `allowance`
  u64 seed;
  bool long_accesses = false;  // a few accesses of kLongLines lines
  // 400 MB/s moves a line in 160 ns, about one fill's latency, so dirty
  // write-backs and DMA landings oversubscribe it: the 2 KiB allowance is
  // soon passed and most bookings see a nonzero `before` penalty.
  i64 dram_mbps = 400;
  u64 allowance = 2048;
};

/// A long access. 2^64 / 10^12 is about 18.4M cycles, or about 69k DRAM
/// fills at 266 cycles each (230 for DRAM, 3 x 12 for reuse), so cycles x
/// 10^12 passes 2^64 about three quarters of the way in.
constexpr u64 kLongLines = 96 * 1024;

void walk_model_check(const WalkCase& wc) {
  const CacheConfig cfg{.capacity_bytes = kLine * wc.sets * wc.ways,
                        .line_bytes = kLine,
                        .ways = wc.ways};
  const Bandwidth dram = wc.limited ? Bandwidth::mb_per_sec(wc.dram_mbps)
                                    : Bandwidth::unlimited();
  const MemoryTimings t = timings(wc.limited ? wc.allowance : 256ull << 10);
  MemorySystem ms(wc.cores, cfg, t, kFreq, dram);
  ReferenceWalk ref(wc.cores, cfg, t, dram);

  // Lines span several directory pages, and about twice one cache, so runs
  // cross page ends, meet other cores' lines and evict constantly.
  const u64 universe = 4 * OwnerDirectory::kPageLines + 2 * cfg.num_lines();
  Rng rng(wc.seed);
  Time now = Time::zero();
  Address last_addr = 0;
  u64 last_bytes = kLine;
  constexpr int kSteps = 2'500;
  for (int step = 0; step < kSteps; ++step) {
    Time got, want;
    if (rng.chance(0.1)) {
      const Address addr = rng.below(universe * kLine);
      const u64 bytes = 1 + rng.below(3 * OwnerDirectory::kPageLines * kLine);
      got = ms.dma_write(addr, bytes, now);
      want = ref.dma_write(addr, bytes, now);
    } else if (wc.long_accesses && step % 800 == 100) {
      // From inside the universe, so it starts on resident lines, then
      // fills fresh ones for the rest of its length.
      const Address addr = rng.below(universe) * kLine;
      const auto core = static_cast<CoreId>(rng.below(
          static_cast<u64>(wc.cores)));
      const bool write = rng.chance(0.5);
      got = ms.access(core, addr, kLongLines * kLine,
                      write ? MemorySystem::AccessType::kWrite
                            : MemorySystem::AccessType::kRead,
                      now, 3);
      want = ref.access(core, addr, kLongLines * kLine, write, now, 3);
    } else {
      // Half the accesses re-walk the previous range, from any core: hint
      // runs, owned lines away from the hints and c2c moves.
      if (rng.chance(0.5)) {
        last_addr = rng.below(universe * kLine);
        last_bytes = 1 + rng.below(std::min<u64>(universe, 160) * kLine);
      }
      const auto core = static_cast<CoreId>(rng.below(
          static_cast<u64>(wc.cores)));
      const bool write = rng.chance(0.4);
      const int reuse = static_cast<int>(rng.below(4));
      got = ms.access(core, last_addr, last_bytes,
                      write ? MemorySystem::AccessType::kWrite
                            : MemorySystem::AccessType::kRead,
                      now, reuse);
      want = ref.access(core, last_addr, last_bytes, write, now, reuse);
    }
    ASSERT_EQ(got, want) << "step " << step;
    for (CoreId c = 0; c < wc.cores; ++c) {
      ASSERT_NO_FATAL_FAILURE(
          expect_same_stats(ms.core_stats(c), ref.stats(c), step, c));
    }
    ASSERT_EQ(ms.c2c_transfers(), ref.c2c()) << "step " << step;
    ASSERT_EQ(ms.dram_line_reads(), ref.reads()) << "step " << step;
    ASSERT_EQ(ms.dram_line_writes(), ref.writes()) << "step " << step;
    ASSERT_EQ(ms.dram_busy_time(), ref.busy()) << "step " << step;
    for (LineAddr line = 0; line < universe; ++line) {
      for (CoreId c = 0; c < wc.cores; ++c) {
        ASSERT_EQ(ms.resident(c, line * kLine, kLine), ref.resident(c, line))
            << "step " << step << " core " << c << " line " << line;
      }
    }
    // Cores overlap: the next access mostly starts a few ns later, not
    // after this one's stall, so the backlog is still above the allowance
    // when it books. Sometimes a long idle drains it.
    now += Time::ns(static_cast<i64>(rng.chance(0.05) ? rng.below(100'000)
                                                      : rng.below(50)));
  }
  // The mix must reach every path it claims to check.
  const CoreCacheStats total = ms.total_stats();
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.misses_dram, 0u);
  EXPECT_GT(total.writebacks, 0u);
  if (wc.cores > 1) {
    EXPECT_GT(total.misses_c2c, 0u);
  }
  if (wc.limited) {
    EXPECT_GT(ref.queued(), Time::zero());
    EXPECT_GT(ref.queued_on_backlog(), 0u);
  }
  if (wc.long_accesses) {
    EXPECT_GT(static_cast<u128>(ref.max_cycles()) * 1'000'000'000'000,
              static_cast<u128>(UINT64_MAX));
  }
}

TEST(MemWalkModel, OneCoreOneSetFourWays) {
  walk_model_check({.cores = 1, .sets = 1, .ways = 4, .limited = false,
                    .seed = 1});
}
TEST(MemWalkModel, TwoCoresDirectMappedLimitedDram) {
  walk_model_check({.cores = 2, .sets = 4, .ways = 1, .limited = true,
                    .seed = 2});
}
TEST(MemWalkModel, FourCoresSixteenWays) {
  walk_model_check({.cores = 4, .sets = 8, .ways = 16, .limited = false,
                    .seed = 3});
}
TEST(MemWalkModel, EightCoresSixteenWaysLimitedDram) {
  walk_model_check({.cores = 8, .sets = 8, .ways = 16, .limited = true,
                    .seed = 4});
}
TEST(MemWalkModel, ThreeCoresSixtyFourWayLimitedDram) {
  walk_model_check({.cores = 3, .sets = 1, .ways = 64, .limited = true,
                    .seed = 5});
}
TEST(MemWalkModel, SixCoresOneSetFourWaysLimitedDram) {
  walk_model_check({.cores = 6, .sets = 1, .ways = 4, .limited = true,
                    .seed = 6});
}
TEST(MemWalkModel, EightCoresDirectMapped) {
  walk_model_check({.cores = 8, .sets = 4, .ways = 1, .limited = false,
                    .seed = 7});
}
TEST(MemWalkModel, TwoCoresFourWaysLimitedDramLongAccesses) {
  walk_model_check({.cores = 2, .sets = 8, .ways = 4, .limited = true,
                    .seed = 8, .long_accesses = true});
}
// The client's shipped controller: 5333 MB/s with a 256 KiB allowance. A
// long access books about 20 ms ahead of the clock, and the accesses after
// it book behind that instant, where nothing drains, so the backlog passes
// the allowance and the walk's reciprocal penalty runs against the
// reference's transfer_time.
TEST(MemWalkModel, FourCoresSixteenWaysShippedDramLongAccesses) {
  walk_model_check({.cores = 4, .sets = 8, .ways = 16, .limited = true,
                    .seed = 9, .long_accesses = true, .dram_mbps = 5333,
                    .allowance = 256ull << 10});
}

}  // namespace
}  // namespace saisim::mem
