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
// it. Disabled (the default) when capacity_bytes == 0.
#pragma once

#include <vector>

#include "util/reflect.hpp"
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
  v.field("ways", c.ways, r::in_range(1, 128));
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

  bool enabled() const { return num_sets_ > 0; }
  u64 block_bytes() const { return cfg_.block_bytes; }
  u64 num_blocks() const { return num_sets_ * ways_; }
  u64 dirty_blocks() const { return dirty_; }
  const Stats& stats() const { return stats_; }

  /// Block-level probe. A hit refreshes LRU; the first demand hit on a
  /// prefetched block credits readahead_useful.
  bool lookup(u64 block);

  /// Residency check with no LRU or stats side effects.
  bool contains(u64 block) const;

  /// Install a block (demand fill, write, or prefetch). Returns the number
  /// of dirty victims evicted to make room — forced write-backs the caller
  /// must charge to the disk. Re-inserting a resident block refreshes LRU
  /// and ors in the dirty bit.
  u64 insert(u64 block, bool dirty, bool prefetched);

  /// Demand read of one block in a single set probe: `lookup(block)`, and
  /// on a miss `insert(block, clean, not prefetched)`. Returns whether the
  /// block hit; adds the dirty victims the fill evicted to `forced`.
  bool lookup_or_fill(u64 block, u64& forced);

  /// Read-ahead of one block in a single set probe: a resident block is
  /// left untouched (no LRU refresh, no stats); an absent one is inserted
  /// clean and prefetched. Returns whether it was inserted; adds the dirty
  /// victims the fill evicted to `forced`.
  bool prefetch(u64 block, u64& forced);

  /// Collect up to `max` dirty blocks, oldest first, and mark them clean
  /// (their write-back has been issued). Returns how many were taken.
  /// O(returned blocks): they are popped off the head of the dirty list.
  u64 take_dirty(u64 max);

  /// Bookkeeping hook for the owner: a prefetch batch was issued.
  void note_readahead_issued(u64 blocks) { stats_.readahead_issued += blocks; }

 private:
  // Entry i (set-major, `ways_` per set) is split across two arrays so a
  // probe reads only the tags: 8 B per way, one 64 B line for an 8-way
  // set. A tag packs `(block + 1) << 2 | dirty << 1 | prefetched` (block
  // numbers are byte offsets / block_bytes, far below 2^62); 0 is an
  // invalid (never filled) way. Entries are never invalidated and a fill
  // takes the first invalid way, so every set's valid ways are a prefix —
  // a probe stops at the first 0 tag.
  static constexpr u64 kPrefetched = 1;
  static constexpr u64 kDirty = 2;
  static constexpr u64 kFlags = kDirty | kPrefetched;
  static constexpr u32 kNil = ~0u;

  // The part of an entry that only hits, fills and victim choice touch:
  // its LRU stamp and its links on the dirty list.
  struct Meta {
    u64 stamp = 0;  // LRU: monotone touch counter
    u32 prev = kNil;
    u32 next = kNil;
  };

  static u64 key_of(u64 block) { return (block + 1) << 2; }
  u64 set_base(u64 block) const;
  /// One pass over the tags of the set at `base`: the way holding `key`,
  /// else the first invalid way, else ways_ (full set, no match).
  u64 scan(u64 base, u64 key) const;
  bool is_hit(u64 base, u64 w) const;
  /// Hit path shared by lookup and lookup_or_fill.
  void demand_hit(u32 i);
  /// New LRU stamp for a resident entry; a dirty one moves to the list tail.
  void touch(u32 i);
  /// Install `tag` over the victim way of the set at `base`: `w` from a
  /// missed scan — the first invalid way, or ways_ for a full set, which
  /// picks the smallest stamp. Returns 1 if a dirty block was evicted.
  u64 fill(u64 base, u64 w, u64 tag);

  // The dirty list threads every dirty entry in ascending stamp order:
  // every new stamp is ++tick_, the largest yet, so an entry that turns
  // dirty or is re-stamped while dirty goes to the tail, and the head is
  // always the oldest dirty block.
  void link_tail(u32 i);
  void unlink(u32 i);

  BufferCacheConfig cfg_;
  u64 num_sets_ = 0;
  bool pow2_sets_ = false;  // set index by mask instead of %
  u64 ways_ = 0;
  std::vector<u64> tags_;  // num_sets_ * ways_, set-major
  std::vector<Meta> meta_;
  u32 dirty_head_ = kNil;
  u32 dirty_tail_ = kNil;
  u64 tick_ = 0;
  u64 dirty_ = 0;
  Stats stats_;
};

}  // namespace saisim::pfs
