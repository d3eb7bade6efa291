// Private-cache tests: LRU/eviction mechanics, the batched probe_run hint
// walk, the O(1) fill and the way-addressed touch and invalidate (and their
// "owner map out of sync" aborts), directed edge cases of the per-set
// recency list (64-way sets, unlinking the head, tail, a middle and the sole
// way), and a seeded model check against the stamp-scan reference
// implementation.
#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/owner_directory.hpp"
#include "util/rng.hpp"

namespace saisim::mem {
namespace {

CacheConfig tiny_cache() {
  // 4 sets x 2 ways x 64B lines = 512 B.
  return CacheConfig{.capacity_bytes = 512, .line_bytes = 64, .ways = 2};
}

/// What fill(line) would do to `c`, found on a copy: the way the line
/// would take and the victim.
struct PeekedFill {
  u32 way = 0;
  Cache::Victim victim;
};

PeekedFill would_fill(const Cache& c, LineAddr line) {
  EXPECT_FALSE(c.contains(line));
  Cache copy = c;
  PeekedFill p;
  p.victim = copy.fill(line, false, p.way);
  return p;
}

TEST(Cache, MissThenHit) {
  Cache c(tiny_cache());
  const LineAddr line = c.line_of(0x1000);
  EXPECT_FALSE(c.contains(line));
  u32 way = 99;
  EXPECT_FALSE(c.fill(line, false, way));
  EXPECT_EQ(way, 0u);  // the set's lowest invalid way
  c.touch_way(line, way, true);
  EXPECT_TRUE(c.contains(line));
  EXPECT_TRUE(c.is_dirty(line));
  EXPECT_EQ(c.resident_lines(), 1u);
}

TEST(Cache, LineOfStripsOffsetBits) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.line_of(0), c.line_of(63));
  EXPECT_NE(c.line_of(63), c.line_of(64));
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(tiny_cache());
  // Three lines mapping to the same set (4 sets => stride 4 lines).
  const LineAddr a = 0, b = 4, d = 8;
  c.insert(a, false);  // way 0
  c.insert(b, false);  // way 1
  c.touch_way(a, 0, false);  // a is now MRU; b is LRU
  const Cache::Victim ev = c.insert(d, false);
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev.line(), b);
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
}

TEST(Cache, EvictionReportsDirtiness) {
  Cache c(tiny_cache());
  c.insert(0, true);
  c.insert(4, false);
  const Cache::Victim ev = c.insert(8, false);  // evicts LRU == line 0 (dirty)
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev.line(), 0u);
  EXPECT_TRUE(ev.dirty());
}

TEST(Cache, MarkDirtySticks) {
  Cache c(tiny_cache());
  c.insert(3, false);
  EXPECT_FALSE(c.is_dirty(3));
  c.mark_dirty(3);
  EXPECT_TRUE(c.is_dirty(3));
}

TEST(Cache, InvalidateRemovesAndReportsDirty) {
  Cache c(tiny_cache());
  u32 way = 0;
  c.fill(5, true, way);
  u32 clean_way = 0;
  c.fill(9, false, clean_way);  // same set, the other way
  EXPECT_TRUE(c.invalidate_way(5, way));
  EXPECT_FALSE(c.contains(5));
  EXPECT_EQ(c.resident_lines(), 1u);
  EXPECT_FALSE(c.invalidate_way(9, clean_way));
  EXPECT_EQ(c.resident_lines(), 0u);
}

// The owner directory names the way; a way that does not hold the line
// means the directory and the cache disagree, which must abort.
TEST(Cache, TouchAtAWayNotHoldingTheLineAborts) {
  Cache c(tiny_cache());  // 4 sets x 2 ways
  c.insert(0, false);     // set 0, way 0
  c.insert(4, false);     // set 0, way 1
  EXPECT_DEATH(c.touch_way(0, 1, false), "owner map out of sync");
  EXPECT_DEATH(c.touch_way(8, 0, true), "owner map out of sync");
  EXPECT_DEATH(c.touch_way(0, 2, false), "owner map out of sync");
}

// The memory walk erases each victim from the owner directory, which must
// hold it: a resident line the directory lost aborts the fill that evicts
// it.
TEST(Cache, EvictingALineTheDirectoryLostAborts) {
  Cache c(tiny_cache());  // 4 sets x 2 ways
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  for (const LineAddr line : {LineAddr{0}, LineAddr{4}}) {
    c.insert(line, false);
    dir.assign_run(at, line, 1, 0);
  }
  // Settle one fill as the walk's fill run does: enter the line, place it,
  // then erase the victim.
  const auto fill = [&](LineAddr line) {
    dir.assign_run(at, line, 1, 0);
    u32 way = 0;
    const Cache::Victim victim = c.fill(line, false, way);
    ASSERT_TRUE(victim);
    OwnerDirectory::Cursor evict;
    dir.erase_mask(evict, OwnerDirectory::page_of(victim.line()),
                   OwnerDirectory::bit(victim.line()));
  };
  dir.erase(at, 0);  // the directory loses line 0, set 0's LRU line
  EXPECT_DEATH(fill(8), "owner map out of sync");
  c.touch_way(0, 0, false);  // line 4, which the directory holds, is LRU now
  fill(8);
  EXPECT_EQ(dir.absent_run(at, 4, 1), 1u);
  EXPECT_EQ(dir.page(at, 8).owner[8], 0);
}

TEST(Cache, InvalidateAtAWayNotHoldingTheLineAborts) {
  Cache c(tiny_cache());
  c.insert(0, false);  // set 0, way 0
  c.insert(4, true);   // set 0, way 1
  EXPECT_DEATH(c.invalidate_way(4, 0), "owner map out of sync");
  EXPECT_DEATH(c.invalidate_way(4, 2), "owner map out of sync");
  EXPECT_TRUE(c.invalidate_way(4, 1));
  // The way is empty now: invalidating the line again is out of sync too.
  EXPECT_DEATH(c.invalidate_way(4, 1), "owner map out of sync");
}

TEST(Cache, DoubleInsertAborts) {
  Cache c(tiny_cache());
  c.insert(1, false);
  EXPECT_DEATH(c.insert(1, false), "double insert");
}

TEST(Cache, CapacityIsRespected) {
  Cache c(tiny_cache());
  for (LineAddr l = 0; l < 100; ++l) (void)c.insert(l, false);
  EXPECT_EQ(c.resident_lines(), tiny_cache().num_lines());
}

TEST(Cache, ConfigDerivedQuantities) {
  const CacheConfig paper{.capacity_bytes = 512ull << 10, .line_bytes = 64,
                          .ways = 16};
  EXPECT_EQ(paper.num_lines(), 8192u);
  EXPECT_EQ(paper.num_sets(), 512u);
}

TEST(Cache, ProbeRunConsumesLeadingHitsOnly) {
  Cache c(tiny_cache());  // 4 sets x 2 ways
  c.insert(0, false);
  c.insert(1, false);
  c.insert(2, false);
  // Lines 0..2 resident, line 3 absent: the run stops there.
  EXPECT_EQ(c.probe_run(0, 8, false), 3u);
  // From an absent line, the run is empty.
  EXPECT_EQ(c.probe_run(3, 4, false), 0u);
}

TEST(Cache, ProbeRunWrapsAroundTheSetArray) {
  Cache c(tiny_cache());  // 4 sets: lines 2,3,4,5 span the set wrap at 4.
  for (LineAddr line = 2; line <= 5; ++line) c.insert(line, false);
  EXPECT_EQ(c.probe_run(2, 4, false), 4u);
}

TEST(Cache, ProbeRunMarksDirtyOnHits) {
  Cache c(tiny_cache());
  c.insert(0, false);
  c.insert(1, false);
  EXPECT_FALSE(c.is_dirty(0));
  EXPECT_EQ(c.probe_run(0, 2, true), 2u);
  EXPECT_TRUE(c.is_dirty(0));
  EXPECT_TRUE(c.is_dirty(1));
}

TEST(Cache, ProbeRunStopsAtMissThenFillEvictsLru) {
  Cache c(tiny_cache());  // 2 ways per set
  c.insert(0, false);     // set 0, way 0
  c.insert(4, true);      // set 0, way 1: both ways now full
  c.touch_way(4, 1, false);  // make line 4 the more recent way
  EXPECT_EQ(c.probe_run(8, 1, false), 0u);  // set 0, absent
  // fill() takes the LRU way with no lookup, exactly like insert().
  u32 way = 99;
  const Cache::Victim evicted = c.fill(8, false, way);
  EXPECT_EQ(way, 0u);
  ASSERT_TRUE(evicted);
  EXPECT_EQ(evicted.line(), 0u);
  EXPECT_FALSE(evicted.dirty());
  EXPECT_TRUE(c.contains(8));
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(4));
}

TEST(Cache, FillPrefersInvalidWay) {
  Cache c(tiny_cache());
  c.insert(0, false);  // set 0, one way still invalid
  EXPECT_EQ(would_fill(c, 4).way, 1u);
  u32 way = 0;
  EXPECT_FALSE(c.fill(4, false, way));  // fills the empty way
  EXPECT_EQ(way, 1u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(4));
  EXPECT_EQ(c.resident_lines(), 2u);
}

// A buffer twice the cache's set count re-walked in address order finds
// every line in its set's LRU way: the head hint consumes the whole run.
TEST(Cache, ProbeRunTakesTheHeadHint) {
  Cache c(tiny_cache());  // 4 sets x 2 ways
  for (LineAddr l = 0; l < 8; ++l) c.insert(l, false);
  EXPECT_EQ(c.probe_run(0, 8, true), 8u);
  for (LineAddr l = 0; l < 8; ++l) EXPECT_TRUE(c.is_dirty(l));
  // Each hit made its line the MRU, so the LRU order is unchanged.
  EXPECT_EQ(c.insert(8, false).line(), 0u);
}

// A line in neither hint way stops the run; touch_way() relinks it at the
// way the owner directory recorded for it.
TEST(Cache, ProbeRunStopsAtAMiddleWay) {
  Cache c(CacheConfig{.capacity_bytes = 256, .line_bytes = 64, .ways = 4});
  for (LineAddr l = 0; l < 4; ++l) c.insert(l, false);  // order 0 1 2 3
  EXPECT_EQ(c.probe_run(1, 1, false), 0u);
  c.touch_way(1, 1, true);  // order 0 2 3 1
  EXPECT_TRUE(c.is_dirty(1));
  EXPECT_EQ(c.insert(10, false).line(), 0u);
  EXPECT_EQ(c.insert(11, false).line(), 2u);
}

TEST(Cache, ConstLookupsDoNotDisturbLru) {
  Cache c(tiny_cache());
  c.insert(0, false);
  c.insert(4, false);  // set 0 full; 0 is LRU
  const Cache& cc = c;
  // Read-only queries on the LRU line must not refresh it.
  EXPECT_TRUE(cc.contains(0));
  EXPECT_FALSE(cc.is_dirty(0));
  const Cache::Victim evicted = c.insert(8, false);
  ASSERT_TRUE(evicted);
  EXPECT_EQ(evicted.line(), 0u);
}

// ---- Recency-list edge cases ----------------------------------------------

/// One set of `ways` ways: every line maps to it.
CacheConfig one_set(u32 ways) {
  return CacheConfig{.capacity_bytes = 64ull * ways, .line_bytes = 64,
                     .ways = ways};
}

/// Insert fresh lines from `next` on until `n` lines were evicted; returns
/// the victims in eviction order (the set's LRU order).
std::vector<LineAddr> eviction_order(Cache& c, LineAddr next, u64 n) {
  std::vector<LineAddr> out;
  while (out.size() < n) {
    if (const Cache::Victim ev = c.insert(next++, false)) {
      out.push_back(ev.line());
    }
  }
  return out;
}

TEST(CacheRecency, FullSixtyFourWaySet) {
  Cache c(one_set(64));
  for (LineAddr l = 0; l < 64; ++l) {
    u32 way = 99;
    EXPECT_FALSE(c.fill(l, l == 0, way));
    EXPECT_EQ(way, l);  // an empty way is always the lowest one
  }
  EXPECT_EQ(c.resident_lines(), 64u);
  // Full: the victim is the LRU way, and hits reorder the list.
  c.touch_way(0, 0, false);
  c.touch_way(63, 63, false);
  const PeekedFill p = would_fill(c, 100);
  ASSERT_TRUE(p.victim);
  EXPECT_EQ(p.victim.line(), 1u);
  EXPECT_EQ(p.way, 1u);
  // Freeing the last way makes it the only candidate.
  EXPECT_FALSE(c.invalidate_way(63, 63));  // clean
  u32 way = 0;
  EXPECT_FALSE(c.fill(100, false, way));
  EXPECT_EQ(way, 63u);
  EXPECT_EQ(eviction_order(c, 200, 3), (std::vector<LineAddr>{1, 2, 3}));
  EXPECT_EQ(c.resident_lines(), 64u);
}

TEST(CacheRecency, InvalidateHeadKeepsOrder) {
  Cache c(one_set(4));
  for (LineAddr l = 0; l < 4; ++l) c.insert(l, false);
  c.invalidate_way(0, 0);  // head (LRU)
  EXPECT_EQ(would_fill(c, 10).way, 0u);
  c.insert(10, false);
  EXPECT_EQ(eviction_order(c, 20, 4), (std::vector<LineAddr>{1, 2, 3, 10}));
}

TEST(CacheRecency, InvalidateTailKeepsOrder) {
  Cache c(one_set(4));
  for (LineAddr l = 0; l < 4; ++l) c.insert(l, false);
  c.touch_way(1, 1, false);  // order 0 2 3 1
  c.invalidate_way(1, 1);    // tail (MRU)
  EXPECT_EQ(would_fill(c, 10).way, 1u);
  c.insert(10, false);
  EXPECT_EQ(eviction_order(c, 20, 4), (std::vector<LineAddr>{0, 2, 3, 10}));
}

TEST(CacheRecency, InvalidateMiddleKeepsOrder) {
  Cache c(one_set(4));
  for (LineAddr l = 0; l < 4; ++l) c.insert(l, false);
  c.invalidate_way(2, 2);
  c.invalidate_way(1, 1);  // ways 1 and 2 free: the refill takes way 1 first
  EXPECT_EQ(would_fill(c, 10).way, 1u);
  c.insert(10, false);
  EXPECT_EQ(would_fill(c, 11).way, 2u);
  c.insert(11, false);
  EXPECT_EQ(eviction_order(c, 20, 4),
            (std::vector<LineAddr>{0, 3, 10, 11}));
}

TEST(CacheRecency, InvalidateSoleWayThenRefill) {
  Cache c(one_set(4));
  c.insert(0, false);
  c.insert(1, true);
  EXPECT_FALSE(c.invalidate_way(0, 0));
  EXPECT_TRUE(c.invalidate_way(1, 1));  // now the sole valid way
  EXPECT_EQ(c.resident_lines(), 0u);
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.probe_run(1, 1, false), 0u);
  for (LineAddr l = 10; l < 14; ++l) {
    EXPECT_EQ(would_fill(c, l).way, l - 10);
    c.insert(l, false);
  }
  EXPECT_EQ(eviction_order(c, 20, 4),
            (std::vector<LineAddr>{10, 11, 12, 13}));
}

TEST(CacheRecency, ProbeAfterTailInvalidated) {
  Cache c(one_set(4));
  for (LineAddr l = 0; l < 3; ++l) c.insert(l, false);
  c.invalidate_way(2, 2);  // the tail, i.e. the lookup hint
  EXPECT_EQ(c.probe_run(2, 1, false), 0u);
  u32 way = 0;
  EXPECT_FALSE(c.fill(2, false, way));  // order 0 1 2
  EXPECT_EQ(way, 2u);
  EXPECT_EQ(c.probe_run(0, 1, true), 1u);
  EXPECT_TRUE(c.is_dirty(0));
  c.insert(3, false);
  EXPECT_EQ(eviction_order(c, 20, 4), (std::vector<LineAddr>{1, 2, 0, 3}));
}

TEST(CacheRecency, ProbeRunAcrossAnInvalidatedTail) {
  Cache c(tiny_cache());  // 4 sets x 2 ways
  for (LineAddr l = 0; l < 4; ++l) c.insert(l, false);
  c.invalidate_way(1, 0);  // set 1 is now empty
  EXPECT_EQ(c.probe_run(0, 4, false), 1u);
  const PeekedFill p = would_fill(c, 1);
  EXPECT_EQ(p.way, 0u);
  EXPECT_FALSE(p.victim);
}

// ---- Model check against the stamp-scan reference -------------------------

/// The cache as it was specified before the recency lists: 16 B entries
/// {tag, stamp}, a clock bumped on every hit and fill, and a victim chosen
/// by "first invalid way, else smallest stamp". The hint ways are the
/// set's newest (tail) and oldest (head) valid entries.
class StampScanCache {
 public:
  struct Eviction {
    LineAddr line;
    bool dirty;
  };

  explicit StampScanCache(const CacheConfig& cfg)
      : ways_(cfg.ways), sets_(cfg.num_sets()), entries_(sets_ * ways_) {}

  u64 probe_run(LineAddr first, u64 count, bool dirty) {
    for (u64 i = 0; i < count; ++i) {
      Entry* e = find(first + i);
      if (e == nullptr || !is_hint(first + i, *e)) return i;
      e->stamp = ++clock_;
      e->dirty |= dirty;
    }
    return count;
  }

  /// A hit on a resident line.
  void touch(LineAddr line, bool dirty) {
    Entry* e = find(line);
    e->stamp = ++clock_;
    e->dirty |= dirty;
  }

  /// The way that holds a resident line: what the owner directory records.
  u32 way_of(LineAddr line) {
    return static_cast<u32>(find(line) - &entries_[(line % sets_) * ways_]);
  }

  bool contains(LineAddr line) { return find(line) != nullptr; }
  bool is_dirty(LineAddr line) {
    const Entry* e = find(line);
    return e != nullptr && e->dirty;
  }

  /// The slot an insert of `line` takes, and what that slot holds.
  struct Slot {
    u64 set = 0;
    u32 way = 0;
    std::optional<Eviction> evicted;
  };

  Slot find_victim(LineAddr line) {
    Slot p;
    p.set = line % sets_;
    const Entry* set = &entries_[p.set * ways_];
    const Entry* victim = nullptr;
    for (u64 w = 0; w < ways_; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (victim == nullptr || set[w].stamp < victim->stamp) victim = &set[w];
    }
    p.way = static_cast<u32>(victim - set);
    if (victim->valid) p.evicted = Eviction{victim->line, victim->dirty};
    return p;
  }

  void commit_insert(const Slot& p, LineAddr line, bool dirty) {
    if (!p.evicted) ++resident_;
    entries_[p.set * ways_ + p.way] = Entry{line, ++clock_, true, dirty};
  }

  std::optional<Eviction> insert(LineAddr line, bool dirty) {
    const Slot p = find_victim(line);
    commit_insert(p, line, dirty);
    return p.evicted;
  }

  void mark_dirty(LineAddr line) { find(line)->dirty = true; }

  /// Drop a resident line; returns whether it was dirty.
  bool invalidate(LineAddr line) {
    Entry* e = find(line);
    e->valid = false;
    --resident_;
    return e->dirty;
  }

  u64 resident_lines() const { return resident_; }

 private:
  struct Entry {
    LineAddr line = 0;
    u64 stamp = 0;
    bool valid = false;
    bool dirty = false;
  };

  Entry* find(LineAddr line) {
    Entry* set = &entries_[(line % sets_) * ways_];
    for (u64 w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].line == line) return &set[w];
    }
    return nullptr;
  }

  /// True if `e` holds the newest or the oldest stamp of its set.
  bool is_hint(LineAddr line, const Entry& e) const {
    const Entry* set = &entries_[(line % sets_) * ways_];
    bool newest = true, oldest = true;
    for (u64 w = 0; w < ways_; ++w) {
      if (!set[w].valid) continue;
      newest &= set[w].stamp <= e.stamp;
      oldest &= set[w].stamp >= e.stamp;
    }
    return newest || oldest;
  }

  u64 ways_;
  u64 sets_;
  std::vector<Entry> entries_;
  u64 clock_ = 0;
  u64 resident_ = 0;
};

void expect_same_eviction(Cache::Victim got,
                          const std::optional<StampScanCache::Eviction>& want,
                          int step) {
  ASSERT_EQ(static_cast<bool>(got), want.has_value()) << "step " << step;
  if (want) {
    ASSERT_EQ(got.line(), want->line) << "step " << step;
    ASSERT_EQ(got.dirty(), want->dirty) << "step " << step;
  }
}

/// Drive both caches with one seeded random op mix over a line universe
/// about twice the capacity, comparing every result, every victim slot and
/// the resident count each step, and every line's residency and dirtiness
/// every 1k steps. A hint run that stops is settled the way the memory walk
/// settles it: a resident line by touch_way() at the way the reference
/// holds it in (the way the owner directory records), an absent one by
/// fill(). Invalidations are way-addressed the same way.
void model_check(u32 ways, u64 sets, u64 seed) {
  const CacheConfig cfg{.capacity_bytes = 64 * sets * ways, .line_bytes = 64,
                        .ways = ways};
  Cache cache(cfg);
  StampScanCache ref(cfg);
  const u64 universe = 2 * cfg.num_lines() + ways;
  Rng rng(seed);
  u64 stopped_runs = 0, stopped_resident = 0, evictions = 0, invalidations = 0;
  LineAddr last_run = 0;
  constexpr int kSteps = 25'000;
  for (int step = 0; step < kSteps; ++step) {
    LineAddr line = rng.below(universe);
    const u64 op = rng.below(100);
    if (op < 45) {
      // Half the runs re-walk the previous one, which by now holds one
      // more resident line: long runs of tail hits, then a miss.
      if (rng.chance(0.5)) line = last_run;
      last_run = line;
      // A run over up to two passes of the set array, so it wraps.
      const u64 count = 1 + rng.below(2 * sets + 2);
      const bool dirty = rng.chance(0.3);
      const u64 run = cache.probe_run(line, count, dirty);
      ASSERT_EQ(run, ref.probe_run(line, count, dirty)) << "step " << step;
      const LineAddr stop = line + run;
      if (run < count && rng.chance(0.9)) {
        ++stopped_runs;
        if (ref.contains(stop)) {
          ++stopped_resident;
          cache.touch_way(stop, ref.way_of(stop), dirty);
          ref.touch(stop, dirty);
        } else {
          const StampScanCache::Slot want = ref.find_victim(stop);
          const bool fill_dirty = rng.chance(0.5);
          u32 way = 0;
          ASSERT_NO_FATAL_FAILURE(expect_same_eviction(
              cache.fill(stop, fill_dirty, way), want.evicted, step));
          ASSERT_EQ(way, want.way) << "step " << step;
          ref.commit_insert(want, stop, fill_dirty);
          if (want.evicted) ++evictions;
        }
      }
    } else if (op < 65) {
      if (!ref.contains(line)) {
        const bool dirty = rng.chance(0.5);
        const auto want = ref.insert(line, dirty);
        ASSERT_NO_FATAL_FAILURE(
            expect_same_eviction(cache.insert(line, dirty), want, step));
        if (want) ++evictions;
      }
    } else if (op < 80) {
      if (ref.contains(line)) {
        const u32 way = ref.way_of(line);
        ASSERT_EQ(cache.invalidate_way(line, way), ref.invalidate(line))
            << "step " << step;
        ++invalidations;
      } else {
        ASSERT_FALSE(cache.contains(line)) << "step " << step;
      }
    } else if (op < 85) {
      if (ref.contains(line)) {
        cache.mark_dirty(line);
        ref.mark_dirty(line);
      }
    } else if (op < 95) {
      ASSERT_EQ(cache.contains(line), ref.contains(line)) << "step " << step;
    } else {
      ASSERT_EQ(cache.is_dirty(line), ref.is_dirty(line)) << "step " << step;
    }
    ASSERT_EQ(cache.resident_lines(), ref.resident_lines()) << "step " << step;
    if (step % 1000 == 999) {
      for (LineAddr l = 0; l < universe; ++l) {
        ASSERT_EQ(cache.contains(l), ref.contains(l))
            << "step " << step << " line " << l;
        ASSERT_EQ(cache.is_dirty(l), ref.is_dirty(l))
            << "step " << step << " line " << l;
      }
    }
  }
  // The mix must have exercised every path, not just hit or just miss.
  EXPECT_GT(stopped_runs, 0u);
  if (ways > 2) {
    EXPECT_GT(stopped_resident, 0u);  // a middle way exists
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(invalidations, 0u);
}

TEST(CacheModel, DirectMapped) { model_check(1, 8, 1); }
TEST(CacheModel, TwoWays) { model_check(2, 4, 2); }
TEST(CacheModel, OneSetFourWays) { model_check(4, 1, 3); }
TEST(CacheModel, SixteenWays) { model_check(16, 32, 4); }
TEST(CacheModel, SixtyFourWays) { model_check(64, 2, 5); }

TEST(AddressSpace, DisjointLineAlignedRanges) {
  AddressSpace as(64);
  const auto a = as.allocate(100);
  const auto b = as.allocate(10);
  EXPECT_EQ(a.base, 0u);
  EXPECT_EQ(b.base, 128u);  // 100 rounded up to two lines
  EXPECT_FALSE(a.contains(b.base));
  EXPECT_TRUE(a.contains(99));
  EXPECT_FALSE(a.contains(100));
}

}  // namespace
}  // namespace saisim::mem
