// Buffer-cache tests: LRU/eviction mechanics of the set-associative cache,
// the dirty list's flush order, a model check against the stamp-scan
// reference implementation, the write-back flush-daemon timeline,
// stride-aware read-ahead usefulness, and shard-count bit-identity of the
// deep server model (the sharded DES contract must hold with the cache and
// scheduler enabled, not just in the legacy default).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "pfs/buffer_cache.hpp"
#include "support/io_server_harness.hpp"
#include "util/rng.hpp"

namespace saisim::pfs {
namespace {

constexpr u64 kBlock = 4096;
constexpr u64 kStrip = 64ull << 10;  // 16 blocks

BufferCacheConfig one_set(int ways) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = kBlock * static_cast<u64>(ways);
  cfg.ways = ways;
  return cfg;
}

TEST(BufferCacheUnit, EvictionIsLruWithinSet) {
  BufferCache c(one_set(4));
  for (u64 b = 0; b < 4; ++b) c.insert(b, false, false);
  EXPECT_TRUE(c.lookup(0));  // refresh 0: block 1 becomes oldest
  c.insert(4, false, false);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_TRUE(c.contains(4));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(BufferCacheUnit, ReinsertRefreshesLruAndOrsDirty) {
  BufferCache c(one_set(4));
  EXPECT_EQ(c.insert(0, false, false), 0u);
  EXPECT_EQ(c.insert(0, true, false), 0u);  // re-insert: no eviction
  EXPECT_EQ(c.dirty_blocks(), 1u);
  for (u64 b = 1; b < 4; ++b) c.insert(b, false, false);
  c.insert(0, false, false);  // refresh; dirty bit must survive
  EXPECT_EQ(c.dirty_blocks(), 1u);
  c.insert(4, false, false);  // victim is block 1, not the refreshed 0
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
}

TEST(BufferCacheUnit, ForcedEvictionReportsDirtyVictims) {
  BufferCache c(one_set(2));
  c.insert(0, true, false);
  c.insert(1, false, false);
  // Block 0 is the LRU victim and dirty: the insert must report one forced
  // write-back for the caller to charge to the disk.
  EXPECT_EQ(c.insert(2, false, false), 1u);
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.dirty_blocks(), 0u);
}

TEST(BufferCacheUnit, TakeDirtyIsOldestFirst) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = kBlock * 16;
  cfg.ways = 4;  // 4 sets
  BufferCache c(cfg);
  c.insert(0, true, false);
  c.insert(1, true, false);
  c.insert(2, true, false);
  c.insert(0, true, false);  // refresh 0: flush order becomes 1, 2, 0
  EXPECT_EQ(c.take_dirty(2), 2u);
  EXPECT_EQ(c.dirty_blocks(), 1u);
  EXPECT_EQ(c.stats().flushed_blocks, 2u);
  // Only the refreshed block 0 can still be dirty.
  EXPECT_EQ(c.take_dirty(16), 1u);
  EXPECT_EQ(c.dirty_blocks(), 0u);
  EXPECT_EQ(c.take_dirty(16), 0u);
}

TEST(BufferCacheUnit, ReadaheadUsefulCreditedOncePerPrefetch) {
  BufferCache c(one_set(4));
  u64 forced = 0;
  // A one-block window one stride past block 6: block 7.
  EXPECT_EQ(c.readahead(6, 1, 1, 1, forced), 1u);
  EXPECT_TRUE(c.lookup(7));
  EXPECT_TRUE(c.lookup(7));  // second demand hit: no double credit
  EXPECT_EQ(c.stats().readahead_issued, 1u);
  EXPECT_EQ(c.stats().readahead_useful, 1u);
}

// ---- Dirty-list flush order ----------------------------------------------

/// Whether resident `block` is dirty. Destructive: re-inserting it dirty
/// leaves dirty_blocks() unchanged exactly when it already was.
template <class Cache>
bool was_dirty(Cache& c, u64 block) {
  EXPECT_TRUE(c.contains(block));
  const u64 before = c.dirty_blocks();
  c.insert(block, /*dirty=*/true, /*prefetched=*/false);
  return c.dirty_blocks() == before;
}

/// Whether `x` and `y` share a set of the direct-mapped `cfg` (found by
/// behaviour: filling `y` evicts `x`).
bool shares_set(const BufferCacheConfig& cfg, u64 x, u64 y) {
  BufferCache probe(cfg);
  probe.insert(x, false, false);
  probe.insert(y, false, false);
  return !probe.contains(x);
}

TEST(BufferCacheFlushOrder, DirtyVictimEvictedFromMiddleOfList) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = kBlock * 16;
  cfg.ways = 1;  // direct-mapped: a victim is whatever holds its set
  const u64 a = 0;
  u64 b = a + 1;
  while (shares_set(cfg, a, b)) ++b;
  u64 c = b + 1;
  while (shares_set(cfg, a, c) || shares_set(cfg, b, c)) ++c;
  u64 d = c + 1;
  while (!shares_set(cfg, b, d)) ++d;
  BufferCache cache(cfg);
  cache.insert(a, true, false);
  cache.insert(b, true, false);
  cache.insert(c, true, false);  // dirty list: a, b, c
  // A clean fill over b's set evicts the list's middle entry.
  EXPECT_EQ(cache.insert(d, false, false), 1u);
  EXPECT_FALSE(cache.contains(b));
  EXPECT_EQ(cache.dirty_blocks(), 2u);
  EXPECT_EQ(cache.take_dirty(1), 1u);  // a, the head
  EXPECT_FALSE(was_dirty(cache, a));
  EXPECT_TRUE(was_dirty(cache, c));
}

TEST(BufferCacheFlushOrder, CleanBlockReinsertedDirtyJoinsTheTail) {
  BufferCache c(one_set(4));
  c.insert(0, true, false);
  c.insert(1, false, false);
  c.insert(2, true, false);
  c.insert(1, true, false);  // dirty list: 0, 2, 1
  EXPECT_EQ(c.dirty_blocks(), 3u);
  EXPECT_EQ(c.take_dirty(2), 2u);
  EXPECT_FALSE(was_dirty(c, 0));
  EXPECT_FALSE(was_dirty(c, 2));
  EXPECT_TRUE(was_dirty(c, 1));
}

TEST(BufferCacheFlushOrder, LookupHitOnTheTailKeepsTheOrder) {
  BufferCache c(one_set(4));
  c.insert(0, true, false);
  EXPECT_TRUE(c.lookup(0));  // sole entry: head and tail at once
  c.insert(1, true, false);
  EXPECT_TRUE(c.lookup(1));  // the tail stays the tail
  c.insert(2, true, false);  // dirty list: 0, 1, 2
  EXPECT_EQ(c.take_dirty(1), 1u);
  EXPECT_FALSE(was_dirty(c, 0));  // now 1, 2, 0
  EXPECT_EQ(c.take_dirty(1), 1u);
  EXPECT_FALSE(was_dirty(c, 1));
  EXPECT_TRUE(was_dirty(c, 2));
  EXPECT_TRUE(was_dirty(c, 0));
}

TEST(BufferCacheFlushOrder, RestampedDirtyHeadMovesToTheTail) {
  BufferCache c(one_set(4));
  c.insert(0, true, false);
  c.insert(1, true, false);
  c.insert(2, true, false);
  EXPECT_TRUE(c.lookup(0));  // 1, 2, 0
  c.insert(1, false, false);  // 2, 0, 1: a clean re-insert re-stamps too
  EXPECT_EQ(c.take_dirty(1), 1u);
  EXPECT_FALSE(was_dirty(c, 2));
  EXPECT_TRUE(was_dirty(c, 0));
  EXPECT_TRUE(was_dirty(c, 1));
}

TEST(BufferCacheFlushOrder, DrainToEmptyThenRefill) {
  BufferCache c(one_set(4));
  c.insert(0, true, false);
  c.insert(1, true, false);
  EXPECT_EQ(c.take_dirty(16), 2u);
  EXPECT_EQ(c.dirty_blocks(), 0u);
  EXPECT_EQ(c.take_dirty(16), 0u);
  c.insert(2, true, false);
  c.insert(0, true, false);  // clean resident turned dirty: list 2, 0
  EXPECT_EQ(c.dirty_blocks(), 2u);
  EXPECT_EQ(c.take_dirty(1), 1u);
  EXPECT_FALSE(was_dirty(c, 2));
  EXPECT_TRUE(was_dirty(c, 0));
  EXPECT_EQ(c.take_dirty(16), 2u);  // 0, then the re-dirtied 2
  EXPECT_EQ(c.take_dirty(16), 0u);
  EXPECT_EQ(c.stats().flushed_blocks, 5u);
}

// ---- Model check against the stamp-scan reference -------------------------

/// The cache as it was specified before the tag array and dirty list: one
/// array of entries, a scan per probe, and take_dirty sorting every dirty
/// stamp. lookup_or_fill, prefetch and readahead are the compositions
/// IoServer ran: readahead is its per-block prefetch loop.
class StampScanCache {
 public:
  explicit StampScanCache(const BufferCacheConfig& cfg)
      : ways_(static_cast<u64>(cfg.ways)),
        num_sets_(std::max<u64>(1, cfg.capacity_bytes /
                                       (cfg.block_bytes * ways_))),
        entries_(num_sets_ * ways_) {}

  u64 dirty_blocks() const { return dirty_; }
  const BufferCache::Stats& stats() const { return stats_; }

  bool lookup(u64 block) {
    Entry* e = find(block);
    if (e == nullptr) {
      ++stats_.misses;
      return false;
    }
    e->stamp = ++tick_;
    if (e->prefetched) {
      e->prefetched = false;
      ++stats_.readahead_useful;
    }
    ++stats_.hits;
    return true;
  }

  bool contains(u64 block) { return find(block) != nullptr; }

  u64 insert(u64 block, bool dirty, bool prefetched) {
    if (Entry* e = find(block)) {
      e->stamp = ++tick_;
      if (dirty && !e->dirty) {
        e->dirty = true;
        ++dirty_;
      }
      if (!prefetched) e->prefetched = false;
      return 0;
    }
    Entry* set = set_of(block);
    Entry* victim = &set[0];
    for (u64 w = 0; w < ways_; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (set[w].stamp < victim->stamp) victim = &set[w];
    }
    u64 forced = 0;
    if (victim->valid) {
      ++stats_.evictions;
      if (victim->dirty) {
        ++stats_.dirty_writebacks;
        --dirty_;
        forced = 1;
      }
    }
    *victim = Entry{block, ++tick_, true, dirty, prefetched};
    if (dirty) ++dirty_;
    return forced;
  }

  bool lookup_or_fill(u64 block, u64& forced) {
    if (lookup(block)) return true;
    forced += insert(block, false, false);
    return false;
  }

  bool prefetch(u64 block, u64& forced) {
    if (contains(block)) return false;
    forced += insert(block, false, true);
    return true;
  }

  u64 readahead(u64 base, u64 stride, u64 span, u64 max, u64& forced) {
    const u64 strides = (max + span - 1) / span;
    u64 inserted = 0;
    for (u64 k = 1; k <= strides && inserted < max; ++k) {
      for (u64 j = 0; j < span && inserted < max; ++j) {
        if (prefetch(base + k * stride + j, forced)) ++inserted;
      }
    }
    stats_.readahead_issued += inserted;
    return inserted;
  }

  u64 take_dirty(u64 max) {
    std::vector<std::pair<u64, u64>> dirty;
    for (u64 i = 0; i < entries_.size(); ++i) {
      if (entries_[i].valid && entries_[i].dirty) {
        dirty.emplace_back(entries_[i].stamp, i);
      }
    }
    const u64 n = std::min<u64>(max, dirty.size());
    std::partial_sort(dirty.begin(), dirty.begin() + static_cast<i64>(n),
                      dirty.end());
    for (u64 k = 0; k < n; ++k) entries_[dirty[k].second].dirty = false;
    dirty_ -= n;
    stats_.flushed_blocks += n;
    return n;
  }

 private:
  struct Entry {
    u64 block = 0;
    u64 stamp = 0;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;
  };

  Entry* set_of(u64 block) {
    u64 h = block;
    return &entries_[(splitmix64(h) % num_sets_) * ways_];
  }

  Entry* find(u64 block) {
    Entry* set = set_of(block);
    for (u64 w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].block == block) return &set[w];
    }
    return nullptr;
  }

  u64 ways_;
  u64 num_sets_;
  std::vector<Entry> entries_;
  u64 tick_ = 0;
  u64 dirty_ = 0;
  BufferCache::Stats stats_;
};

/// Drive both caches with one seeded random op mix over a block universe
/// three times the capacity, comparing every result and the full residency
/// map after every step. take_dirty batches are drawn below `take_below`
/// (0: half the blocks plus two). Read-ahead windows start in the universe
/// and reach up to kReach blocks past it.
void model_check(const BufferCacheConfig& cfg, u64 seed, u64 take_below = 0) {
  BufferCache cache(cfg);
  StampScanCache ref(cfg);
  const u64 universe = 3 * cache.num_blocks();
  if (take_below == 0) take_below = cache.num_blocks() / 2 + 2;
  constexpr u64 kMaxStride = 6;
  constexpr u64 kMaxSpan = 6;
  constexpr u64 kMaxReadahead = 40;
  constexpr u64 kReach = kMaxReadahead * kMaxStride + kMaxSpan;
  // Windows that were cut by `max` inside a span, that had more candidates
  // than the cache has sets (so some share a set), and whose candidates
  // overlap (stride below span).
  u64 cut_inside_span = 0, crowded = 0, overlapping = 0;
  Rng rng(seed);
  constexpr int kSteps = 25'000;
  for (int step = 0; step < kSteps; ++step) {
    const u64 block = rng.below(universe);
    const u64 op = rng.below(100);
    if (op < 20) {
      ASSERT_EQ(cache.lookup(block), ref.lookup(block)) << "step " << step;
    } else if (op < 40) {
      u64 got = 0, want = 0;
      ASSERT_EQ(cache.lookup_or_fill(block, got),
                ref.lookup_or_fill(block, want))
          << "step " << step;
      ASSERT_EQ(got, want) << "step " << step;
    } else if (op < 55) {
      const u64 stride = 1 + rng.below(kMaxStride);
      const u64 span = 1 + rng.below(kMaxSpan);
      const u64 max = 1 + rng.below(kMaxReadahead);
      u64 got = 0, want = 0;
      const u64 inserted = ref.readahead(block, stride, span, max, want);
      ASSERT_EQ(cache.readahead(block, stride, span, max, got), inserted)
          << "step " << step;
      ASSERT_EQ(got, want) << "step " << step;
      if (inserted == max && max % span != 0) ++cut_inside_span;
      const u64 candidates = (max + span - 1) / span * span;
      if (candidates > cache.num_blocks() / static_cast<u64>(cfg.ways)) {
        ++crowded;
      }
      if (stride < span) ++overlapping;
    } else if (op < 60) {
      ASSERT_EQ(cache.contains(block), ref.contains(block)) << "step " << step;
    } else if (op < 90) {
      const bool dirty = rng.chance(0.5);
      const bool prefetched = rng.chance(0.2);
      ASSERT_EQ(cache.insert(block, dirty, prefetched),
                ref.insert(block, dirty, prefetched))
          << "step " << step;
    } else {
      const u64 k = rng.below(take_below);
      ASSERT_EQ(cache.take_dirty(k), ref.take_dirty(k)) << "step " << step;
    }
    ASSERT_EQ(cache.dirty_blocks(), ref.dirty_blocks()) << "step " << step;
    ASSERT_TRUE(cache.stats() == ref.stats()) << "step " << step;
    // Residency and dirtiness of every block, probed on copies (the
    // dirtiness probe re-stamps, so it must not touch the originals).
    BufferCache cache_copy = cache;
    StampScanCache ref_copy = ref;
    for (u64 b = 0; b < universe + kReach; ++b) {
      ASSERT_EQ(cache.contains(b), ref.contains(b))
          << "step " << step << " block " << b;
      if (ref.contains(b)) {
        ASSERT_EQ(was_dirty(cache_copy, b), was_dirty(ref_copy, b))
            << "step " << step << " block " << b;
      }
    }
  }
  // The mix must have exercised every path, not just hit or just miss.
  EXPECT_GT(ref.stats().hits, 0u);
  EXPECT_GT(ref.stats().dirty_writebacks, 0u);
  EXPECT_GT(ref.stats().flushed_blocks, 0u);
  EXPECT_GT(ref.stats().readahead_useful, 0u);
  EXPECT_GT(cut_inside_span, 0u);
  EXPECT_GT(crowded, 0u);
  EXPECT_GT(overlapping, 0u);
}

BufferCacheConfig geometry(u64 sets, int ways) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = sets * kBlock * static_cast<u64>(ways);
  cfg.ways = ways;
  return cfg;
}

TEST(BufferCacheModel, DirectMapped) { model_check(geometry(16, 1), 1); }
TEST(BufferCacheModel, EightWays) { model_check(geometry(8, 8), 2); }
TEST(BufferCacheModel, NonPowerOfTwoSets) { model_check(geometry(3, 8), 3); }
TEST(BufferCacheModel, OneSet) { model_check(geometry(1, 8), 4); }
// The widest set the valid mask allows. Flush batches stay small, so dirty
// blocks live long enough to age out of a 64-way set as forced write-backs.
TEST(BufferCacheModel, SixtyFourWays) { model_check(geometry(2, 64), 5, 3); }

// ---- Deep-server timeline tests ------------------------------------------

using Harness = test::IoServerHarness;

TEST(BufferCacheTimeline, WriteBackAcksAtCacheSpeedAndFlushesBehind) {
  IoServerConfig io;
  BufferCacheConfig wb;
  wb.capacity_bytes = 1ull << 20;
  BufferCacheConfig wt = wb;
  wt.write_back = false;
  Harness hb(io, wb), ht(io, wt);
  hb.send(net::PacketKind::kPfsWriteData, 1, 0, kStrip, Time::zero());
  ht.send(net::PacketKind::kPfsWriteData, 1, 0, kStrip, Time::zero());
  hb.s.run();  // returning at all proves the flush daemon goes quiescent
  ht.s.run();
  ASSERT_EQ(hb.arrivals.size(), 1u);
  ASSERT_EQ(ht.arrivals.size(), 1u);
  // Write-through pays the disk before the ack; write-back does not.
  const Time io_time = io.disk_seek + io.disk_bandwidth.transfer_time(kStrip);
  EXPECT_EQ(ht.arrivals[0].at - hb.arrivals[0].at, io_time);
  // ...but the bytes still reach the platter, via the background daemon.
  EXPECT_GE(hb.server.stats().flush_bursts, 1u);
  EXPECT_EQ(hb.server.cache().dirty_blocks(), 0u);
  EXPECT_EQ(hb.server.cache().stats().flushed_blocks, kStrip / kBlock);
  EXPECT_GT(hb.server.stats().flush_disk_ps, 0);
}

TEST(BufferCacheTimeline, FlushDaemonDrainsInPeriodSizedBatches) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = 1ull << 20;
  cfg.flush_batch = 16;
  cfg.flush_period = Time::ms(10);
  Harness h({}, cfg);
  // One 128 KiB write = 32 dirty blocks = two flush bursts, one per tick.
  h.send(net::PacketKind::kPfsWriteData, 1, 0, 2 * kStrip, Time::zero());
  h.s.run();
  EXPECT_EQ(h.server.stats().flush_bursts, 2u);
  EXPECT_EQ(h.server.cache().stats().flushed_blocks, 2 * kStrip / kBlock);
  EXPECT_EQ(h.server.cache().dirty_blocks(), 0u);
}

TEST(BufferCacheTimeline, DirtyThresholdTriggersUrgentFlush) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = kBlock * 64;
  cfg.ways = 8;
  cfg.dirty_flush_threshold = 0.25;  // 16 of 64 blocks
  cfg.flush_period = Time::sec(1);   // the periodic tick alone is too late
  Harness h({}, cfg);
  h.send(net::PacketKind::kPfsWriteData, 1, 0, kStrip, Time::zero());
  u64 dirty_at_1ms = ~0ull;
  h.s.at(Time::ms(1), [&] { dirty_at_1ms = h.server.cache().dirty_blocks(); });
  h.s.run();
  // The high-water burst fired immediately, long before the 1 s tick.
  EXPECT_EQ(dirty_at_1ms, 0u);
  EXPECT_GE(h.server.stats().flush_bursts, 1u);
}

TEST(BufferCacheTimeline, ReadaheadTurnsAStreamIntoHits) {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = 1ull << 20;
  cfg.readahead_blocks = 16;  // one strip ahead
  Harness h({}, cfg);
  // Sequential strip stream, spaced so each request (and its prefetch)
  // finishes before the next arrives.
  h.send(net::PacketKind::kPfsRequest, 1, 0, kStrip, Time::zero());
  h.send(net::PacketKind::kPfsRequest, 2, kStrip, kStrip, Time::ms(10));
  h.send(net::PacketKind::kPfsRequest, 3, 2 * kStrip, kStrip, Time::ms(20));
  h.s.run();
  ASSERT_EQ(h.arrivals.size(), 3u);
  // Request 2 confirms the stride and prefetches request 3's blocks;
  // request 3 is then a full-request cache hit.
  EXPECT_EQ(h.server.stats().cache_hits, 1u);
  EXPECT_EQ(h.server.cache().stats().readahead_useful, kStrip / kBlock);
  EXPECT_GE(h.server.cache().stats().readahead_issued, kStrip / kBlock);
  const Time lat2 = h.latency_of(2, Time::ms(10));
  const Time lat3 = h.latency_of(3, Time::ms(20));
  // The hit skips the seek entirely.
  EXPECT_LT(lat3 + IoServerConfig{}.disk_seek, lat2 + Time::us(1));
}

TEST(BufferCacheTimeline, StridedStreamIsDetectedAcrossStripeGaps) {
  // A striped file shows up at one server with a stride of
  // num_servers * strip blocks; the detector must still prefetch.
  BufferCacheConfig cfg;
  cfg.capacity_bytes = 4ull << 20;
  cfg.readahead_blocks = 16;
  Harness h({}, cfg);
  const u64 stride_bytes = 8 * kStrip;  // 8-server striping
  for (int i = 0; i < 4; ++i) {
    h.send(net::PacketKind::kPfsRequest, i, stride_bytes * static_cast<u64>(i),
           kStrip, Time::ms(10 * i));
  }
  h.s.run();
  ASSERT_EQ(h.arrivals.size(), 4u);
  // Requests 2 and 3 (the third and fourth) ride on prefetched blocks.
  EXPECT_EQ(h.server.stats().cache_hits, 2u);
  EXPECT_GE(h.server.cache().stats().readahead_useful, 2 * kStrip / kBlock);
}

// ---- Shard-count bit-identity with the deep model enabled ----------------

void hex_u64(std::string& out, u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  out += buf;
  out += '.';
}

void hex_f64(std::string& out, double v) { hex_u64(out, std::bit_cast<u64>(v)); }

std::string metrics_fingerprint(const RunMetrics& m) {
  std::string fp;
  hex_f64(fp, m.bandwidth_mbps);
  hex_f64(fp, m.l2_miss_rate);
  hex_f64(fp, m.cpu_utilization);
  hex_f64(fp, m.unhalted_cycles);
  hex_u64(fp, m.total_bytes);
  hex_u64(fp, static_cast<u64>(m.elapsed.picoseconds()));
  hex_u64(fp, m.interrupts);
  hex_f64(fp, m.mean_read_latency_us);
  for (double b : m.per_client_bandwidth_mbps) hex_f64(fp, b);
  return fp;
}

ExperimentConfig deep_experiment(int shards) {
  ExperimentConfig cfg;
  cfg.num_servers = 8;
  cfg.client.nic_bandwidth = Bandwidth::gbit(3.0);
  cfg.client.nic.queues = 3;
  cfg.ior.transfer_size = 128ull << 10;
  cfg.ior.total_bytes = 2ull << 20;
  cfg.policy = PolicyKind::kSourceAware;
  cfg.server.cache.capacity_bytes = 1ull << 20;
  cfg.server.cache.readahead_blocks = 16;
  cfg.server.sched.enabled = true;
  cfg.sim.shards = shards;
  return cfg;
}

TEST(DeepServerSharding, ReadRunBitIdenticalAcrossShardCounts) {
  const std::string one =
      metrics_fingerprint(run_experiment(deep_experiment(1)));
  const std::string four =
      metrics_fingerprint(run_experiment(deep_experiment(4)));
  EXPECT_EQ(one, four);
}

TEST(DeepServerSharding, WriteBackRunBitIdenticalAcrossShardCounts) {
  ExperimentConfig one_cfg = deep_experiment(1);
  one_cfg.ior.mode = workload::IorMode::kWrite;
  ExperimentConfig four_cfg = deep_experiment(4);
  four_cfg.ior.mode = workload::IorMode::kWrite;
  const std::string one = metrics_fingerprint(run_experiment(one_cfg));
  const std::string four = metrics_fingerprint(run_experiment(four_cfg));
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace saisim::pfs
