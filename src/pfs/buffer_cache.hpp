// The I/O server's block buffer cache: a set-associative LRU over
// fixed-size blocks keyed by absolute file-block number, so residency is a
// deterministic property of the *data* each workload touches — identical
// request streams hit identically regardless of the client's interrupt
// policy, and policy comparisons stay noise-free (the same contract the
// cache_hit_ratio coin flip of a cacheless server provides, with real
// state).
//
// The cache only tracks residency and dirtiness; all timing (disk fills,
// write-back bursts, lookup latency) is charged by the IoServer that owns
// it. Disabled (the default) when capacity_bytes == 0. Tags and LRU order
// live in util::SetAssocLru, the core the client's L2 shares; this class
// keeps the hashed set index, the block key with its prefetched bit, a
// dirty list and the stats. An entry takes 12 B (8 B tag, 2 B recency
// links, 2 B of its set's state) until the first block turns dirty; the
// dirty list, allocated then, adds 8 B.
#pragma once

#include <vector>

#include "util/reflect.hpp"
#include "util/rng.hpp"
#include "util/set_assoc_lru.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace saisim::pfs {

struct BufferCacheConfig {
  /// Total cache size. 0 (the default) disables the cache entirely and the
  /// server's residency is the server.io.cache_hit_ratio coin flip.
  u64 capacity_bytes = 0;
  /// Cache block (page) size; requests are resolved block-by-block.
  u64 block_bytes = 4096;
  /// Set associativity. capacity / (block * ways) sets, LRU within a set.
  int ways = 8;
  /// Write-back mode: dirty blocks are buffered and acks return at cache
  /// speed; a background flush daemon writes them out. When false the
  /// server stays write-through (disk before ack) but written blocks still
  /// land clean in the cache.
  bool write_back = true;
  /// Flush eagerly once this fraction of all blocks is dirty.
  double dirty_flush_threshold = 0.5;
  /// Period of the background flush daemon while dirty blocks exist.
  Time flush_period = Time::ms(10);
  /// Dirty blocks written back per flush burst.
  int flush_batch = 16;
  /// Sequential read-ahead depth (blocks prefetched past a detected
  /// stream's last read). 0 disables read-ahead.
  int readahead_blocks = 8;
  /// CPU-side cost of resolving a request against the cache index.
  Time lookup_time = Time::us(2);
};

template <class V>
void describe(V& v, BufferCacheConfig& c) {
  namespace r = util::reflect;
  v.field("capacity_bytes", c.capacity_bytes, r::non_negative(), "B");
  v.field("block_bytes", c.block_bytes, r::pow2_at_least(512), "B");
  v.field("ways", c.ways, r::in_range(1, 64));
  v.field("write_back", c.write_back);
  v.field("dirty_flush_threshold", c.dirty_flush_threshold,
          r::unit_interval());
  v.field("flush_period", c.flush_period, r::positive());
  v.field("flush_batch", c.flush_batch, r::in_range(1, 65536));
  v.field("readahead_blocks", c.readahead_blocks, r::in_range(0, 1024));
  v.field("lookup_time", c.lookup_time, r::non_negative());
  v.invariant(c.capacity_bytes == 0 ||
                  c.capacity_bytes >=
                      c.block_bytes * static_cast<u64>(c.ways),
              "server.cache.capacity_bytes must fit at least one full set "
              "(block_bytes * ways) when enabled");
}

class BufferCache {
 public:
  struct Stats {
    u64 hits = 0;    // block-level lookup hits
    u64 misses = 0;  // block-level lookup misses
    u64 evictions = 0;
    /// Dirty victims forcibly written back to make room (not flush-daemon
    /// write-backs — those are `flushed_blocks`).
    u64 dirty_writebacks = 0;
    u64 flushed_blocks = 0;
    u64 readahead_issued = 0;
    u64 readahead_useful = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  explicit BufferCache(const BufferCacheConfig& config);

  bool enabled() const { return lru_.num_sets() > 0; }
  u64 block_bytes() const { return cfg_.block_bytes; }
  u64 num_blocks() const { return lru_.num_sets() * lru_.ways(); }
  u64 dirty_blocks() const { return dirty_; }
  const Stats& stats() const { return stats_; }

  /// Residency check with no LRU or stats side effects.
  bool contains(u64 block) const {
    return enabled() && lru_.find(set_of(block), key_of(block)) != Lru::kNone;
  }

  /// Install a block (demand fill, write, or prefetch). Returns the number
  /// of dirty victims evicted to make room — forced write-backs the caller
  /// must charge to the disk. Re-inserting a resident block refreshes LRU
  /// and ors in the dirty bit.
  u64 insert(u64 block, bool dirty, bool prefetched);

  /// Demand read of one block in a single set probe. A hit refreshes LRU;
  /// the first demand hit on a prefetched block credits readahead_useful.
  /// A miss does `insert(block, clean, not prefetched)`. Returns whether
  /// the block hit; adds the dirty victims the fill evicted to `forced`.
  bool lookup_or_fill(u64 block, u64& forced);

  /// Read-ahead of a stream's window: the candidate blocks
  /// `base + k * stride + j` for k = 1, 2, ... and j < span, in that order,
  /// through the first ceil(max / span) strides, stopping once `max`
  /// blocks were inserted. A resident candidate is left untouched (no LRU
  /// refresh, no stats); an absent one is inserted clean and prefetched.
  /// Returns how many were inserted (also counted as readahead_issued);
  /// adds the dirty victims the fills evicted to `forced`.
  u64 readahead(u64 base, u64 stride, u64 span, u64 max, u64& forced);

  /// Collect up to `max` dirty blocks, oldest first, and mark them clean
  /// (their write-back has been issued). Returns how many were taken.
  /// O(returned blocks): they are popped off the head of the dirty list.
  u64 take_dirty(u64 max);

 private:
  // The tags and LRU order live in the shared set-associative core. A tag
  // packs `(block + 1) << 2 | dirty << 1 | prefetched` (block numbers are
  // byte offsets / block_bytes, far below 2^62); 0 is an invalid (never
  // filled) way. Entry i is way i % ways of set i / ways.
  static constexpr u64 kPrefetched = 1;
  static constexpr u64 kDirty = 2;
  using Lru = util::SetAssocLru<kDirty | kPrefetched>;

  // An entry's links on the dirty list.
  struct Meta {
    u32 prev = 0;
    u32 next = 0;
  };

  static u64 key_of(u64 block) { return (block + 1) << 2; }
  /// Set index hashed from the block number. A plain `block % num_sets`
  /// is pathological for striped streams: one server sees a stream at a
  /// stride of num_servers * strip blocks, which for power-of-two set
  /// counts lands every strip of the stream in the same few sets and
  /// thrashes the prefetched blocks out before they are used. Hashing keeps
  /// the mapping a deterministic property of the data while spreading
  /// strides uniformly. Inline: read-ahead hashes every candidate.
  u64 set_of(u64 block) const {
    const u64 x = splitmix64(block);
    return pow2_sets_ ? x & (lru_.num_sets() - 1) : x % lru_.num_sets();
  }
  u32 entry(u64 set, u32 way) const {
    return static_cast<u32>(set * lru_.ways() + way);
  }
  /// A resident entry becomes its set's MRU; a dirty one moves to the
  /// dirty list's tail.
  void touch(u64 set, u32 way);
  /// Install `tag` over the set's victim way. Returns 1 if a dirty block
  /// was evicted.
  u64 fill(u64 set, u64 tag);

  // The dirty list threads every dirty entry in order of last touch: an
  // entry that turns dirty or is touched while dirty goes to the tail, so
  // the head is always the oldest dirty block. It is circular through the
  // sentinel meta_[end_]: end_'s next is the head, its prev the tail.
  // meta_ stays empty until the first block turns dirty, so a read-only
  // cache never allocates it.
  /// Entry `i` turns dirty: count it and link it at the tail, allocating
  /// the list on first use.
  void mark_dirty(u32 i);
  void link_tail(u32 i);
  void unlink(u32 i);

  BufferCacheConfig cfg_;
  bool pow2_sets_ = false;  // set index by mask instead of %
  Lru lru_;
  std::vector<Meta> meta_;  // empty, or num_blocks() entries + sentinel
  u32 end_ = 0;
  u64 dirty_ = 0;
  Stats stats_;
};

/// Counter rows (`server.cache.*`, and `server<i>.cache.*` per deep server).
template <class V>
void describe(V& v, BufferCache::Stats& s) {
  v.field("block_hits", s.hits);
  v.field("block_misses", s.misses);
  v.field("evictions", s.evictions);
  v.field("dirty_writebacks", s.dirty_writebacks);
  v.field("flushed_blocks", s.flushed_blocks);
  v.field("readahead_issued", s.readahead_issued);
  v.field("readahead_useful", s.readahead_useful);
}

}  // namespace saisim::pfs
