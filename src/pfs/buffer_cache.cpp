#include "pfs/buffer_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace saisim::pfs {

BufferCache::BufferCache(const BufferCacheConfig& config) : cfg_(config) {
  if (cfg_.capacity_bytes == 0) return;
  const u32 ways = static_cast<u32>(cfg_.ways);
  const u64 sets =
      std::max<u64>(1, cfg_.capacity_bytes / (cfg_.block_bytes * ways));
  SAISIM_CHECK_MSG(sets * ways < ~u32{0},
                   "buffer cache entry count must fit the u32 dirty links");
  pow2_sets_ = std::has_single_bit(sets);
  lru_ = Lru(sets, ways);
  end_ = static_cast<u32>(sets * ways);
}

void BufferCache::mark_dirty(u32 i) {
  // A cache that never holds a dirty block never pays for the list.
  if (meta_.empty()) meta_.assign(end_ + 1, Meta{end_, end_});
  ++dirty_;
  link_tail(i);
}

void BufferCache::link_tail(u32 i) {
  const u32 tail = meta_[end_].prev;
  meta_[i] = Meta{tail, end_};
  meta_[tail].next = i;
  meta_[end_].prev = i;
}

void BufferCache::unlink(u32 i) {
  const Meta m = meta_[i];
  meta_[m.prev].next = m.next;
  meta_[m.next].prev = m.prev;
}

void BufferCache::touch(u64 set, u32 way) {
  lru_.touch(set, way);
  const u32 i = entry(set, way);
  if ((lru_.tags(set)[way] & kDirty) != 0 && meta_[end_].prev != i) {
    unlink(i);
    link_tail(i);
  }
}

u64 BufferCache::fill(u64 set, u64 tag) {
  u32 way = 0;
  const u64 victim = lru_.fill(set, tag, way);
  const u32 i = entry(set, way);
  const bool forced = (victim & kDirty) != 0;
  if (victim != 0) ++stats_.evictions;
  if (forced) {
    ++stats_.dirty_writebacks;
    --dirty_;
    unlink(i);
  }
  if ((tag & kDirty) != 0) mark_dirty(i);
  return forced ? 1 : 0;
}

u64 BufferCache::insert(u64 block, bool dirty, bool prefetched) {
  SAISIM_CHECK(enabled());
  const u64 set = set_of(block);
  const u64 key = key_of(block);
  const u32 way = lru_.find(set, key);
  if (way == Lru::kNone) {
    return fill(set,
                key | (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0));
  }
  touch(set, way);
  u64& tag = lru_.tags(set)[way];
  if (dirty && (tag & kDirty) == 0) {
    // Just touched, so its place is the tail.
    tag |= kDirty;
    mark_dirty(entry(set, way));
  }
  if (!prefetched) tag &= ~kPrefetched;
  return 0;
}

bool BufferCache::lookup_or_fill(u64 block, u64& forced) {
  SAISIM_CHECK(enabled());
  const u64 set = set_of(block);
  const u64 key = key_of(block);
  const u32 way = lru_.find(set, key);
  if (way == Lru::kNone) {
    ++stats_.misses;
    forced += fill(set, key);
    return false;
  }
  touch(set, way);
  u64& tag = lru_.tags(set)[way];
  if ((tag & kPrefetched) != 0) {
    tag &= ~kPrefetched;
    ++stats_.readahead_useful;
  }
  ++stats_.hits;
  return true;
}

u64 BufferCache::readahead(u64 base, u64 stride, u64 span, u64 max,
                           u64& forced) {
  SAISIM_CHECK(enabled());
  SAISIM_CHECK(span > 0);
  // Candidates are hashed a chunk at a time and their sets' lines
  // requested before the first probe, so the chunk's misses in the host
  // cache overlap instead of stalling one after another. The probes and
  // fills then run in candidate order, exactly as one block at a time
  // would: hashing ahead has no effect on the cache.
  constexpr u32 kChunk = 16;
  u64 blocks[kChunk];
  u64 sets[kChunk];
  const u64 strides = (max + span - 1) / span;
  u64 k = 1;
  u64 j = 0;
  u64 inserted = 0;
  while (inserted < max && k <= strides) {
    u32 n = 0;
    for (; n < kChunk && k <= strides; ++n) {
      blocks[n] = base + k * stride + j;
      sets[n] = set_of(blocks[n]);
      lru_.prefetch_set(sets[n]);
      if (++j == span) {
        j = 0;
        ++k;
      }
    }
    for (u32 i = 0; i < n && inserted < max; ++i) {
      const u64 key = key_of(blocks[i]);
      if (lru_.find(sets[i], key) != Lru::kNone) continue;
      forced += fill(sets[i], key | kPrefetched);
      ++inserted;
    }
  }
  stats_.readahead_issued += inserted;
  return inserted;
}

u64 BufferCache::take_dirty(u64 max) {
  SAISIM_CHECK(enabled());
  // dirty_ counts the list, so a cache that was never dirty (and has no
  // list) takes nothing.
  const u64 n = std::min(max, dirty_);
  for (u64 k = 0; k < n; ++k) {
    const u32 i = meta_[end_].next;
    unlink(i);
    lru_.tags(0)[i] &= ~kDirty;
  }
  dirty_ -= n;
  stats_.flushed_blocks += n;
  return n;
}

}  // namespace saisim::pfs
