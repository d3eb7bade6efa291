#include "pfs/buffer_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace saisim::pfs {

BufferCache::BufferCache(const BufferCacheConfig& config) : cfg_(config) {
  if (cfg_.capacity_bytes == 0) return;
  ways_ = static_cast<u64>(cfg_.ways);
  num_sets_ =
      std::max<u64>(1, cfg_.capacity_bytes / (cfg_.block_bytes * ways_));
  pow2_sets_ = std::has_single_bit(num_sets_);
  SAISIM_CHECK_MSG(num_sets_ * ways_ < kNil,
                   "buffer cache entry count must fit the u32 dirty links");
  tags_.assign(num_sets_ * ways_, 0);
  meta_.resize(num_sets_ * ways_);
}

/// Set index hashed from the block number. A plain `block % num_sets`
/// is pathological for striped streams: one server sees a stream at a
/// stride of num_servers * strip blocks, which for power-of-two set counts
/// lands every strip of the stream in the same few sets and thrashes the
/// prefetched blocks out before they are used. Hashing keeps the mapping a
/// deterministic property of the data while spreading strides uniformly.
u64 BufferCache::set_base(u64 block) const {
  u64 h = block;
  const u64 x = splitmix64(h);
  return (pow2_sets_ ? x & (num_sets_ - 1) : x % num_sets_) * ways_;
}

u64 BufferCache::scan(u64 base, u64 key) const {
  const u64* set = &tags_[base];
  u64 w = 0;
  while (w < ways_ && set[w] != 0 && (set[w] & ~kFlags) != key) ++w;
  return w;
}

bool BufferCache::is_hit(u64 base, u64 w) const {
  return w < ways_ && tags_[base + w] != 0;
}

void BufferCache::link_tail(u32 i) {
  meta_[i].prev = dirty_tail_;
  meta_[i].next = kNil;
  if (dirty_tail_ == kNil) {
    dirty_head_ = i;
  } else {
    meta_[dirty_tail_].next = i;
  }
  dirty_tail_ = i;
}

void BufferCache::unlink(u32 i) {
  const Meta& m = meta_[i];
  if (m.prev == kNil) {
    dirty_head_ = m.next;
  } else {
    meta_[m.prev].next = m.next;
  }
  if (m.next == kNil) {
    dirty_tail_ = m.prev;
  } else {
    meta_[m.next].prev = m.prev;
  }
}

void BufferCache::touch(u32 i) {
  meta_[i].stamp = ++tick_;
  if ((tags_[i] & kDirty) != 0 && dirty_tail_ != i) {
    unlink(i);
    link_tail(i);
  }
}

void BufferCache::demand_hit(u32 i) {
  touch(i);
  if ((tags_[i] & kPrefetched) != 0) {
    tags_[i] &= ~kPrefetched;
    ++stats_.readahead_useful;
  }
  ++stats_.hits;
}

u64 BufferCache::fill(u64 base, u64 w, u64 tag) {
  if (w == ways_) {  // full set: the least recently stamped way
    w = 0;
    for (u64 k = 1; k < ways_; ++k) {
      if (meta_[base + k].stamp < meta_[base + w].stamp) w = k;
    }
  }
  const u32 i = static_cast<u32>(base + w);
  u64 forced = 0;
  if (tags_[i] != 0) {
    ++stats_.evictions;
    if ((tags_[i] & kDirty) != 0) {
      ++stats_.dirty_writebacks;
      --dirty_;
      unlink(i);
      forced = 1;
    }
  }
  tags_[i] = tag;
  meta_[i].stamp = ++tick_;
  if ((tag & kDirty) != 0) {
    ++dirty_;
    link_tail(i);
  }
  return forced;
}

bool BufferCache::lookup(u64 block) {
  SAISIM_CHECK(enabled());
  const u64 base = set_base(block);
  const u64 w = scan(base, key_of(block));
  if (!is_hit(base, w)) {
    ++stats_.misses;
    return false;
  }
  demand_hit(static_cast<u32>(base + w));
  return true;
}

bool BufferCache::contains(u64 block) const {
  if (!enabled()) return false;
  const u64 base = set_base(block);
  return is_hit(base, scan(base, key_of(block)));
}

u64 BufferCache::insert(u64 block, bool dirty, bool prefetched) {
  SAISIM_CHECK(enabled());
  const u64 base = set_base(block);
  const u64 key = key_of(block);
  const u64 w = scan(base, key);
  if (!is_hit(base, w)) {
    return fill(base, w,
                key | (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0));
  }
  const u32 i = static_cast<u32>(base + w);
  touch(i);
  if (dirty && (tags_[i] & kDirty) == 0) {
    // Freshly stamped, so its place is the tail.
    tags_[i] |= kDirty;
    ++dirty_;
    link_tail(i);
  }
  if (!prefetched) tags_[i] &= ~kPrefetched;
  return 0;
}

bool BufferCache::lookup_or_fill(u64 block, u64& forced) {
  SAISIM_CHECK(enabled());
  const u64 base = set_base(block);
  const u64 key = key_of(block);
  const u64 w = scan(base, key);
  if (is_hit(base, w)) {
    demand_hit(static_cast<u32>(base + w));
    return true;
  }
  ++stats_.misses;
  forced += fill(base, w, key);
  return false;
}

bool BufferCache::prefetch(u64 block, u64& forced) {
  SAISIM_CHECK(enabled());
  const u64 base = set_base(block);
  const u64 key = key_of(block);
  const u64 w = scan(base, key);
  if (is_hit(base, w)) return false;
  forced += fill(base, w, key | kPrefetched);
  return true;
}

u64 BufferCache::take_dirty(u64 max) {
  SAISIM_CHECK(enabled());
  u64 n = 0;
  for (; n < max && dirty_head_ != kNil; ++n) {
    const u32 i = dirty_head_;
    unlink(i);
    tags_[i] &= ~kDirty;
  }
  dirty_ -= n;
  stats_.flushed_blocks += n;
  return n;
}

}  // namespace saisim::pfs
