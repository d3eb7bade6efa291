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
// queue penalty is checked against Bandwidth::transfer_time. A fill run
// books its DRAM in closed form behind the controller's horizon and in a
// quiet tail; cases at a rate whose fill step drains exactly two lines,
// and hand-built runs at the edges of both forms, check those against the
// per-line booking.
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
/// The client's shipped DRAM controller, in bytes per second.
constexpr i64 kShippedDram = 5'333'000'000;
/// A fill run's step without reuse: 230 DRAM cycles (timings() below), in
/// whole picoseconds.
constexpr i64 kFillStepPs = kFreq.duration(Cycles{230}).picoseconds();
/// The DRAM rate, about 729 MB/s, at which one fill step drains exactly two
/// lines and one picosecond more drains 129 bytes: the smallest whole
/// rate with (s + 1) x rate >= 129 x 10^12.
constexpr i64 kTwoLineDram =
    (129 * 1'000'000'000'000 + kFillStepPs) / (kFillStepPs + 1);
static_assert(kFillStepPs * kTwoLineDram / 1'000'000'000'000 == 2 * kLine);
static_assert((kFillStepPs + 1) * kTwoLineDram / 1'000'000'000'000 ==
              2 * kLine + 1);

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
  /// The instant of the last booking that drained.
  Time horizon() const { return last_; }
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
                       CoreId core) {
  ASSERT_EQ(got.accesses, want.accesses) << "core " << core;
  ASSERT_EQ(got.hits, want.hits) << "core " << core;
  ASSERT_EQ(got.misses_dram, want.misses_dram) << "core " << core;
  ASSERT_EQ(got.misses_c2c, want.misses_c2c) << "core " << core;
  ASSERT_EQ(got.evictions, want.evictions) << "core " << core;
  ASSERT_EQ(got.writebacks, want.writebacks) << "core " << core;
}

/// A MemorySystem and the reference walk driven in lockstep. Each call
/// runs one step on both and requires the same stall, every counter, the
/// DRAM controller's busy time and every line's residency in [0,
/// universe) afterwards.
class Lockstep {
 public:
  Lockstep(int cores, const CacheConfig& cfg, const MemoryTimings& t,
           Bandwidth dram, u64 universe)
      : ms(cores, cfg, t, kFreq, dram),
        ref(cores, cfg, t, dram),
        cores_(cores),
        universe_(universe) {}

  void access(CoreId core, Address addr, u64 bytes, bool write, Time now,
              int reuse) {
    const Time got = ms.access(core, addr, bytes,
                               write ? MemorySystem::AccessType::kWrite
                                     : MemorySystem::AccessType::kRead,
                               now, reuse);
    ASSERT_EQ(got, ref.access(core, addr, bytes, write, now, reuse));
    ASSERT_NO_FATAL_FAILURE(expect_same_state());
  }

  void dma_write(Address addr, u64 bytes, Time now) {
    ASSERT_EQ(ms.dma_write(addr, bytes, now), ref.dma_write(addr, bytes, now));
    ASSERT_NO_FATAL_FAILURE(expect_same_state());
  }

  MemorySystem ms;
  ReferenceWalk ref;

 private:
  void expect_same_state() {
    for (CoreId c = 0; c < cores_; ++c) {
      ASSERT_NO_FATAL_FAILURE(
          expect_same_stats(ms.core_stats(c), ref.stats(c), c));
    }
    ASSERT_EQ(ms.c2c_transfers(), ref.c2c());
    ASSERT_EQ(ms.dram_line_reads(), ref.reads());
    ASSERT_EQ(ms.dram_line_writes(), ref.writes());
    ASSERT_EQ(ms.dram_busy_time(), ref.busy());
    for (LineAddr line = 0; line < universe_; ++line) {
      for (CoreId c = 0; c < cores_; ++c) {
        ASSERT_EQ(ms.resident(c, line * kLine, kLine), ref.resident(c, line))
            << "core " << c << " line " << line;
      }
    }
  }

  int cores_;
  u64 universe_;
};

struct WalkCase {
  int cores;
  u64 sets;
  u32 ways;
  bool limited;  // DRAM at dram_bps with a burst allowance of `allowance`
  u64 seed;
  bool long_accesses = false;  // a few accesses of kLongLines lines
  // 400 MB/s moves a line in 160 ns, about one fill's latency, so dirty
  // write-backs and DMA landings oversubscribe it: the 2 KiB allowance is
  // soon passed and most bookings see a nonzero `before` penalty.
  i64 dram_bps = 400'000'000;
  u64 allowance = 2048;
  // Accesses come in pairs: one core writes a strip, then another reads
  // it (the irqbalance hand-off of a strip from the core that took the
  // interrupt to the one that consumes it).
  bool handoff = false;
};

/// A long access. 2^64 / 10^12 is about 18.4M cycles, or about 69k DRAM
/// fills at 266 cycles each (230 for DRAM, 3 x 12 for reuse), so cycles x
/// 10^12 passes 2^64 about three quarters of the way in.
constexpr u64 kLongLines = 96 * 1024;

CacheConfig geometry(u64 sets, u32 ways) {
  return CacheConfig{.capacity_bytes = kLine * sets * ways,
                     .line_bytes = kLine,
                     .ways = ways};
}

void walk_model_check(const WalkCase& wc) {
  const CacheConfig cfg = geometry(wc.sets, wc.ways);
  const Bandwidth dram = wc.limited ? Bandwidth::bytes_per_sec(wc.dram_bps)
                                    : Bandwidth::unlimited();
  const MemoryTimings t = timings(wc.limited ? wc.allowance : 256ull << 10);
  // Lines span several directory pages, and about twice one cache, so runs
  // cross page ends, meet other cores' lines and evict constantly.
  const u64 universe = 4 * OwnerDirectory::kPageLines + 2 * cfg.num_lines();
  Lockstep pair(wc.cores, cfg, t, dram, universe);
  const MemorySystem& ms = pair.ms;
  const ReferenceWalk& ref = pair.ref;

  Rng rng(wc.seed);
  Time now = Time::zero();
  Address last_addr = 0;
  u64 last_bytes = kLine;
  CoreId writer = 0;
  constexpr int kSteps = 2'500;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    if (rng.chance(0.1)) {
      const Address addr = rng.below(universe * kLine);
      const u64 bytes = 1 + rng.below(3 * OwnerDirectory::kPageLines * kLine);
      ASSERT_NO_FATAL_FAILURE(pair.dma_write(addr, bytes, now));
    } else if (wc.long_accesses && step % 800 == 100) {
      // From inside the universe, so it starts on resident lines, then
      // fills fresh ones for the rest of its length.
      const Address addr = rng.below(universe) * kLine;
      const auto core = static_cast<CoreId>(rng.below(
          static_cast<u64>(wc.cores)));
      ASSERT_NO_FATAL_FAILURE(pair.access(core, addr, kLongLines * kLine,
                                          rng.chance(0.5), now, 3));
    } else if (wc.handoff) {
      // A strip of up to one cache's worth of lines, written whole on one
      // core and then read whole, with block reuse, on another: the read
      // moves every line the writer still holds cache to cache.
      if (step % 2 == 0) {
        last_addr = rng.below(universe * kLine);
        last_bytes = 1 + rng.below(cfg.num_lines() * kLine);
        writer = static_cast<CoreId>(rng.below(static_cast<u64>(wc.cores)));
        ASSERT_NO_FATAL_FAILURE(
            pair.access(writer, last_addr, last_bytes, true, now, 0));
      } else {
        const auto reader = static_cast<CoreId>(
            (static_cast<u64>(writer) + 1 +
             rng.below(static_cast<u64>(wc.cores) - 1)) %
            static_cast<u64>(wc.cores));
        ASSERT_NO_FATAL_FAILURE(pair.access(reader, last_addr, last_bytes,
                                            false, now,
                                            static_cast<int>(rng.below(4))));
      }
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
      ASSERT_NO_FATAL_FAILURE(
          pair.access(core, last_addr, last_bytes, write, now, reuse));
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
                    .seed = 9, .long_accesses = true, .dram_bps = kShippedDram,
                    .allowance = 256ull << 10});
}

// The shipped rate with an allowance of one line: the controller drains
// more than a miss's two lines between two fill-run misses, but a miss
// that books a fill and a dirty write-back together passes the allowance,
// so each such booking queues.
TEST(MemWalkModel, TwoCoresFourWaysShippedDramOneLineAllowance) {
  walk_model_check({.cores = 2, .sets = 8, .ways = 4, .limited = true,
                    .seed = 11, .dram_bps = kShippedDram, .allowance = kLine});
}

// The irqbalance hand-off at the client's shipped DRAM rate, 5333 MB/s:
// each strip is written on one core and read on another, so the reads are
// held runs of cache-to-cache moves whose fills evict the reader's dirty
// lines and book their write-backs at each move's instant. Strips of at
// most 8 KiB never pass the shipped 256 KiB allowance between idles, so
// the allowance is the default 2 KiB, and the bookings queue.
TEST(MemWalkModel, FourCoresSixteenWaysShippedDramStripHandoff) {
  walk_model_check({.cores = 4, .sets = 8, .ways = 16, .limited = true,
                    .seed = 10, .dram_bps = kShippedDram, .handoff = true});
}

// A controller whose fill step drains exactly two lines, and one line more
// than that a picosecond later: a run's quiet tail starts wherever a
// booking leaves the backlog within the allowance, and its summed drain
// must count each step that carries a picosecond. Writes make most victims
// dirty, so a step often adds as much as it drains and the tail's backlog
// moves only by those carries.
TEST(MemWalkModel, TwoCoresEightWaysTwoLineDrain) {
  walk_model_check({.cores = 2, .sets = 8, .ways = 8, .limited = true,
                    .seed = 12, .dram_bps = kTwoLineDram});
}
TEST(MemWalkModel, FourCoresSixteenWaysTwoLineDrainStripHandoff) {
  walk_model_check({.cores = 4, .sets = 8, .ways = 16, .limited = true,
                    .seed = 13, .dram_bps = kTwoLineDram, .handoff = true});
}

// ---- The held run's edges, each checked against the reference ------------
//
// A held run starts where the hint run stops on a line some cache holds,
// and settles that line and the present lines after it from one directory
// page. Each case below builds one edge by hand; the lockstep compares
// stall, counters and residency with the reference after every access.

constexpr u64 P = OwnerDirectory::kPageLines;

/// Read (or write) lines [first, first + count) on `core` at `now`.
void walk(Lockstep& pair, CoreId core, LineAddr first, u64 count,
          bool write = false, int reuse = 0, Time now = Time::zero()) {
  ASSERT_NO_FATAL_FAILURE(
      pair.access(core, first * kLine, count * kLine, write, now, reuse));
}

// Core 0 holds lines 4..7 in the middle way of sets 0..3, away from both
// hints, except line 6, which core 1 holds. The read of 4..7 is one held
// run: two relinked hits, a cache-to-cache move, and a hit again.
TEST(MemWalkHeldRun, ContinuesPastAnotherCoresLineWithATransfer) {
  Lockstep pair(2, geometry(4, 4), timings(256ull << 10),
                Bandwidth::unlimited(), 3 * P);
  walk(pair, 0, 0, 4);  // each set's head
  walk(pair, 0, 4, 2);
  walk(pair, 1, 6, 1);
  walk(pair, 0, 7, 1);
  walk(pair, 0, 8, 4);  // each set's tail
  const CoreCacheStats before = pair.ms.core_stats(0);
  walk(pair, 0, 4, 4, false, 2);
  const CoreCacheStats& after = pair.ms.core_stats(0);
  EXPECT_EQ(after.hits - before.hits, 3u + 4 * 2);
  EXPECT_EQ(after.misses_c2c - before.misses_c2c, 1u);
  EXPECT_EQ(after.misses_dram, before.misses_dram);
  EXPECT_TRUE(pair.ms.resident(0, 4 * kLine, 4 * kLine));
  EXPECT_FALSE(pair.ms.resident(1, 6 * kLine, kLine));
  // The relinked lines are each set's MRU now: of the next three fills per
  // set, the first takes the free way, the second evicts the old head and
  // the third the old tail, and lines 4..7 stay.
  walk(pair, 0, 12, 12);
  EXPECT_TRUE(pair.ms.resident(0, 4 * kLine, 4 * kLine));
  EXPECT_FALSE(pair.ms.resident(0, 8 * kLine, kLine));
}

// One set of two ways. Core 0 holds line 11 (dirty, LRU) and line 40
// (MRU); core 1 holds line 10. Reading 10..11 on core 0 moves line 10 over,
// and that fill evicts line 11, the run's next line, so the run must see
// line 11 leave the page's presence mask and stop: line 11 then comes back
// from DRAM. With a limited controller the transfer's dirty write-back
// and the refill book DRAM at their own instants.
TEST(MemWalkHeldRun, RereadsPresenceAfterAFillEvictsItsNextLine) {
  Lockstep pair(2, geometry(1, 2), timings(0), Bandwidth::mb_per_sec(400),
                P);
  walk(pair, 0, 11, 1, true);
  walk(pair, 0, 40, 1);
  walk(pair, 1, 10, 1);
  const CoreCacheStats before = pair.ms.core_stats(0);
  walk(pair, 0, 10, 2, false, 1);
  const CoreCacheStats& after = pair.ms.core_stats(0);
  EXPECT_EQ(after.misses_c2c - before.misses_c2c, 1u);
  EXPECT_EQ(after.misses_dram - before.misses_dram, 1u);
  EXPECT_EQ(after.evictions - before.evictions, 2u);
  EXPECT_EQ(after.writebacks - before.writebacks, 1u);
  EXPECT_TRUE(pair.ms.resident(0, 10 * kLine, 2 * kLine));
  EXPECT_FALSE(pair.ms.resident(0, 40 * kLine, kLine));
}

// Lines 60..75 straddle the first directory page's end. Core 0 holds them
// in the middle way of all 16 sets, except line 65, which core 1 holds.
// The run over page 0's lines stops at the page's end, and the walk goes
// on with page 1's, where it moves line 65 over.
TEST(MemWalkHeldRun, CrossesAPageBoundary) {
  Lockstep pair(2, geometry(16, 4), timings(256ull << 10),
                Bandwidth::unlimited(), 2 * P);
  walk(pair, 0, 44, 16);
  walk(pair, 0, 60, 5);
  walk(pair, 1, 65, 1);
  walk(pair, 0, 66, 10);
  walk(pair, 0, 76, 16);
  const CoreCacheStats before = pair.ms.core_stats(0);
  walk(pair, 0, 60, 16, true);
  const CoreCacheStats& after = pair.ms.core_stats(0);
  EXPECT_EQ(after.hits - before.hits, 15u);
  EXPECT_EQ(after.misses_c2c - before.misses_c2c, 1u);
  EXPECT_EQ(after.misses_dram, before.misses_dram);
  EXPECT_TRUE(pair.ms.resident(0, 60 * kLine, 16 * kLine));
}

// One set of four ways holding lines 0..3, oldest first. A read of line 1
// alone settles it and leaves line 2, present on the same page, alone: the
// two fills after it evict line 0, then line 2, not line 3.
TEST(MemWalkHeldRun, EndsAtTheRangesLastLine) {
  Lockstep pair(1, geometry(1, 4), timings(256ull << 10),
                Bandwidth::unlimited(), P);
  walk(pair, 0, 0, 4);
  const CoreCacheStats before = pair.ms.core_stats(0);
  walk(pair, 0, 1, 1);
  EXPECT_EQ(pair.ms.core_stats(0).hits - before.hits, 1u);
  walk(pair, 0, 4, 2);
  EXPECT_FALSE(pair.ms.resident(0, 0, kLine));
  EXPECT_FALSE(pair.ms.resident(0, 2 * kLine, kLine));
  EXPECT_TRUE(pair.ms.resident(0, kLine, kLine));
  EXPECT_TRUE(pair.ms.resident(0, 3 * kLine, kLine));
}

// ---- The fill run's DRAM bookings, each edge against the reference -------
//
// A fill run books its misses in closed form where it can: a stretch at or
// before the controller's last booking (its horizon) drains nothing, so its
// penalties telescope; and after a booking that drained and left the
// backlog within the allowance, at a rate whose fill step drains two lines,
// no later miss of the run queues, so the run's backlog is summed. The
// controller below drains exactly two lines per fill step (230 cycles, no
// reuse) and 129 bytes a picosecond later. A DMA landing sets the backlog
// and the horizon by hand; one landed behind the horizon after a run
// pays a penalty that reads the backlog the run left.

constexpr u64 kAllowance = 2048;
constexpr Address kFar = 1024 * kLine;  // no case below caches this line

Lockstep two_line_pair(u64 sets, u32 ways) {
  return Lockstep(1, geometry(sets, ways), timings(kAllowance),
                  Bandwidth::bytes_per_sec(kTwoLineDram), 2 * P);
}

/// A fill step of `steps` misses, no reuse.
Time fill_steps(i64 steps) { return kFreq.duration(Cycles{230 * steps}); }

// The first miss drains nothing (1 ps after the landing) and brings the
// backlog to exactly the allowance, so it pays nothing and the rest of the
// run goes quiet. One byte more and that miss queues; the next drains
// back under the allowance.
TEST(MemWalkModel, FillRunAtTheAllowanceGoesQuiet) {
  for (const u64 landed : {kAllowance - kLine, kAllowance - kLine + 1}) {
    SCOPED_TRACE(testing::Message() << "landed " << landed);
    Lockstep pair = two_line_pair(16, 4);
    ASSERT_NO_FATAL_FAILURE(pair.dma_write(kFar, landed, Time::zero()));
    const Time before = pair.ref.queued();
    walk(pair, 0, 0, P, false, 0, Time::ps(1));
    EXPECT_EQ(pair.ref.queued() > before, landed > kAllowance - kLine);
  }
}

// Lines 64..79 are held dirty in a 16-line direct-mapped cache, so every
// miss of a write run over 0..63 evicts a dirty line and books two lines,
// which one step drains exactly. The run books its first miss at the
// horizon, which brings the backlog to the allowance; the second drains
// two lines and adds two, so the tail starts at the allowance, and after
// that the backlog falls by a byte at each step that carries a
// picosecond. A landing of one allowance behind the horizon then pays
// the transfer time of that backlog.
TEST(MemWalkModel, FillRunCarriesDrainAByteEach) {
  Lockstep pair = two_line_pair(16, 1);
  walk(pair, 0, P, 16, true);
  const Time t = Time::ms(1);
  ASSERT_NO_FATAL_FAILURE(pair.dma_write(kFar, kAllowance - 2 * kLine, t));
  walk(pair, 0, 0, P, true, 0, t);
  EXPECT_EQ(pair.ms.core_stats(0).writebacks, P);
  const Time before = pair.ref.queued();
  ASSERT_NO_FATAL_FAILURE(pair.dma_write(kFar, kAllowance, t));
  const Time paid = pair.ref.queued() - before;
  // At least one carry, and at most one per step.
  EXPECT_LT(paid, Bandwidth::bytes_per_sec(kTwoLineDram)
                      .transfer_time(kAllowance));
  EXPECT_GE(paid, Bandwidth::bytes_per_sec(kTwoLineDram)
                      .transfer_time(kAllowance - P));
}

// A run that starts behind a landing's horizon books there, penalties and
// all, until its clock passes the horizon, and drains from there: the
// landing is 20 fill steps after the run's start, and the run is 64 lines.
// With the backlog over the allowance the behind stretch queues and so
// reaches the horizon in fewer misses; under it, the first miss past the
// horizon drains only from the horizon, not from the stretch's last miss.
// A run that starts 1000 steps behind stays there to its end.
TEST(MemWalkModel, FillRunCrossesOrStaysBehindAFutureHorizon) {
  for (const u64 landed : {kAllowance + 4096, kAllowance / 2}) {
    for (const i64 ahead : {i64{20}, i64{1000}}) {
      SCOPED_TRACE(testing::Message()
                   << "landed " << landed << " ahead " << ahead);
      Lockstep pair = two_line_pair(16, 1);
      walk(pair, 0, P, 16, true);
      const Time horizon = Time::ms(1);
      ASSERT_NO_FATAL_FAILURE(pair.dma_write(kFar, landed, horizon));
      walk(pair, 0, 0, P, true, 0, horizon - fill_steps(ahead));
      EXPECT_EQ(pair.ref.horizon() > horizon, ahead == 20);
      // A landing at the horizon reads the backlog the run left.
      ASSERT_NO_FATAL_FAILURE(pair.dma_write(kFar, kAllowance, horizon));
    }
  }
}

// Line 15 is held dirty in a 16-line direct-mapped cache, and a read of
// 16..31 fills from DRAM, so only the run's last miss evicts a dirty line
// and books two. The run's tail ends with the backlog at those two lines,
// and a landing behind the horizon that brings it one byte past the
// allowance queues.
TEST(MemWalkModel, FillRunDirtyVictimOnItsLastLine) {
  Lockstep pair = two_line_pair(16, 1);
  walk(pair, 0, 15, 1, true);
  walk(pair, 0, 16, 16);
  EXPECT_EQ(pair.ms.core_stats(0).writebacks, 1u);
  const Time before = pair.ref.queued();
  ASSERT_NO_FATAL_FAILURE(
      pair.dma_write(kFar, kAllowance - 2 * kLine + 1, Time::zero()));
  EXPECT_GT(pair.ref.queued(), before);
}

// Every even line of 0..63 is held, so a read of the page alternates hits
// with fill runs of one line, over a backlog past the allowance; once
// ahead of a landing's horizon, once behind it.
TEST(MemWalkModel, OneLineFillRuns) {
  for (const Time at : {Time::zero(), Time::us(1)}) {
    SCOPED_TRACE(testing::Message() << "landing at " << at);
    Lockstep pair = two_line_pair(16, 4);
    for (LineAddr line = 0; line < P; line += 2) walk(pair, 0, line, 1, true);
    ASSERT_NO_FATAL_FAILURE(pair.dma_write(kFar, kAllowance + 512, at));
    const Time before = pair.ref.queued();
    walk(pair, 0, 0, P, true);
    EXPECT_EQ(pair.ms.core_stats(0).misses_dram, P);
    EXPECT_GT(pair.ref.queued(), before);
  }
}

}  // namespace
}  // namespace saisim::mem
