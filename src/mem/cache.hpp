// Set-associative private cache tag store.
//
// Models the per-core private L2 of the paper's AMD Opteron testbed
// (512 KiB, 64 B lines). Only tags and LRU state are kept — the simulator
// never stores payload bytes, it tracks *where* each line currently lives.
//
// Layout: one u64 tag per way (line, valid and dirty fused, 0 = invalid),
// one u8 prev/next pair per way, and per set a valid-way mask plus the
// head and tail of a doubly-linked recency list over the set's valid ways
// (head = LRU, tail = MRU). A 16-way set takes 176 B. The victim is the
// lowest invalid way, else the list head: O(1), no stamp comparison. The
// tail doubles as the lookup hint, so streaming re-walks (NIC payload
// walks, strip combines) match one tag and relink nothing, and probe_run()
// walks a contiguous line range with the set cursor carried between lines,
// which is what MemorySystem::access batches its per-64B-line loop on.
#pragma once

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "util/assert.hpp"
#include "util/reflect.hpp"
#include "util/types.hpp"

namespace saisim::mem {

struct CacheConfig {
  u64 capacity_bytes = 512ull << 10;
  u64 line_bytes = 64;
  u32 ways = 16;

  u64 num_lines() const { return capacity_bytes / line_bytes; }
  u64 num_sets() const { return num_lines() / ways; }
};

template <class V>
void describe(V& v, CacheConfig& c) {
  namespace r = util::reflect;
  v.field("capacity_bytes", c.capacity_bytes, r::pow2_at_least(1024), "B");
  v.field("line_bytes", c.line_bytes, r::pow2_at_least(8), "B");
  v.field("ways", c.ways, r::in_range(1, 64));
  // The Cache constructor's geometry requirements (see below).
  v.invariant(c.line_bytes > 0 && c.ways > 0 &&
                  c.capacity_bytes % (c.line_bytes * c.ways) == 0,
              "capacity_bytes must be a multiple of line_bytes * ways");
  v.invariant(c.line_bytes == 0 || c.ways == 0 ||
                  c.capacity_bytes % (c.line_bytes * c.ways) != 0 ||
                  std::has_single_bit(c.num_sets()),
              "capacity_bytes / (line_bytes * ways) must be a power of two");
}

/// A line address: byte address with the offset bits stripped.
using LineAddr = u64;

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg) : cfg_(cfg) {
    SAISIM_CHECK(cfg.line_bytes > 0 && std::has_single_bit(cfg.line_bytes));
    SAISIM_CHECK(cfg.ways > 0 && cfg.ways <= 64);
    SAISIM_CHECK(cfg.capacity_bytes % (cfg.line_bytes * cfg.ways) == 0);
    const u64 sets = cfg.num_sets();
    SAISIM_CHECK(std::has_single_bit(sets));
    set_mask_ = sets - 1;
    all_ways_ = ~0ull >> (64 - cfg.ways);
    tags_.assign(sets * cfg.ways, 0);
    links_.assign(sets * cfg.ways, Link{});
    sets_.assign(sets, SetState{});
  }

  const CacheConfig& config() const { return cfg_; }

  LineAddr line_of(Address addr) const { return addr / cfg_.line_bytes; }

  /// True if the line is present; refreshes LRU on hit and, for a store,
  /// marks the line dirty in the same scan.
  bool probe(LineAddr line, bool mark_dirty_on_hit = false) {
    return probe_run(line, 1, mark_dirty_on_hit) == 1;
  }

  struct Eviction {
    LineAddr line;
    bool dirty;
  };

  /// Result of a victim lookup: where the next insert of that line will
  /// land, and what it displaces. See find_victim/commit_insert.
  struct PendingInsert {
    std::optional<Eviction> evicted;
    u64 set = 0;
    u32 way = 0;
  };

  /// Probe the contiguous lines [first, first + count) in ascending order,
  /// refreshing LRU (and marking dirty if `dirty`) on each hit; stops at
  /// the first absent line. Returns the number of leading hits consumed.
  /// Equivalent to `count` probe() calls, but the set cursor stays in
  /// registers across the whole run.
  ///
  /// If `miss_victim` is non-null and the run stops short, it receives the
  /// victim slot for the missing line — the same scan that proves the line
  /// absent selects where its insert will land, so the miss path pays one
  /// set walk, not two. Pass it to commit_insert with no intervening
  /// operations on this cache.
  u64 probe_run(LineAddr first, u64 count, bool dirty,
                PendingInsert* miss_victim = nullptr) {
    return dirty ? probe_run_impl<true>(first, count, miss_victim)
                 : probe_run_impl<false>(first, count, miss_victim);
  }

  /// Presence check without touching LRU state.
  bool contains(LineAddr line) const { return find(line) != kAbsent; }

  bool is_dirty(LineAddr line) const {
    const u64 i = find(line);
    return i != kAbsent && (tags_[i] & kDirty) != 0;
  }

  /// Two-phase insert. find_victim locates the way the new line will land
  /// in (checking the must-not-be-present invariant) and reports the
  /// eviction early, so the caller can overlap the victim's directory
  /// bookkeeping with other miss work; commit_insert then writes the new
  /// line into that slot. No other operation on this cache may intervene
  /// between the two calls.
  PendingInsert find_victim(LineAddr line) const {
    SAISIM_CHECK_MSG(find(line) == kAbsent, "double insert of cache line");
    return pick_victim(set_index(line));
  }

  void commit_insert(const PendingInsert& p, LineAddr line, bool dirty) {
    SetState& st = sets_[p.set];
    Link* const links = links_.data() + p.set * cfg_.ways;
    tags_[p.set * cfg_.ways + p.way] =
        (line << 2) | kValid | (dirty ? kDirty : 0);
    if (p.evicted) {
      touch(st, links, p.way);
    } else {
      append(st, links, p.way);
      st.valid |= 1ull << p.way;
      ++resident_;
    }
  }

  /// Insert a line (must not be present). Returns the victim, if any.
  std::optional<Eviction> insert(LineAddr line, bool dirty) {
    const PendingInsert p = find_victim(line);
    commit_insert(p, line, dirty);
    return p.evicted;
  }

  /// Mark a present line dirty (store hit).
  void mark_dirty(LineAddr line) {
    const u64 i = find(line);
    SAISIM_CHECK(i != kAbsent);
    tags_[i] |= kDirty;
  }

  /// Drop a line if present; returns whether it was dirty.
  struct Invalidation {
    bool was_present;
    bool was_dirty;
  };
  Invalidation invalidate(LineAddr line) {
    const u64 i = find(line);
    if (i == kAbsent) return {false, false};
    const bool dirty = (tags_[i] & kDirty) != 0;
    const u64 set = set_index(line);
    const u32 way = static_cast<u32>(i - set * cfg_.ways);
    SetState& st = sets_[set];
    unlink(st, links_.data() + set * cfg_.ways, way);
    st.valid &= ~(1ull << way);
    tags_[i] = 0;
    --resident_;
    return {true, dirty};
  }

  u64 resident_lines() const { return resident_; }

 private:
  static constexpr u64 kValid = 1;
  static constexpr u64 kDirty = 2;
  static constexpr u64 kAbsent = ~0ull;

  /// Recency-list neighbours of one way, as way indices within its set.
  struct Link {
    u8 prev = 0;
    u8 next = 0;
  };
  /// Valid ways, linked head (LRU) to tail (MRU). In an empty set head
  /// and tail are stale but still name ways of the set, whose tags are 0,
  /// so a hint compare against either simply fails.
  struct SetState {
    u64 valid = 0;
    u8 head = 0;
    u8 tail = 0;
  };

  u64 set_index(LineAddr line) const { return line & set_mask_; }

  /// Victim for the next insert into `set`: the lowest invalid way (an
  /// insert with room evicts nothing), otherwise the LRU way.
  PendingInsert pick_victim(u64 set) const {
    const SetState& st = sets_[set];
    PendingInsert p;
    p.set = set;
    const u64 free = ~st.valid & all_ways_;
    if (free != 0) {
      p.way = static_cast<u32>(std::countr_zero(free));
    } else {
      p.way = st.head;
      const u64 tag = tags_[set * cfg_.ways + st.head];
      p.evicted = Eviction{tag >> 2, (tag & kDirty) != 0};
    }
    return p;
  }

  /// Link the unlinked way `w` in at the MRU end of the set's list. The
  /// list is empty only if `st.valid` is 0, so a fill sets the valid bit
  /// of `w` after this call.
  static void append(SetState& st, Link* links, u32 w) {
    const u8 way = static_cast<u8>(w);
    if (st.valid == 0) {
      st.head = way;
    } else {
      links[w].prev = st.tail;
      links[st.tail].next = way;
    }
    st.tail = way;
  }

  static void unlink(SetState& st, Link* links, u32 w) {
    const u8 prev = links[w].prev;
    const u8 next = links[w].next;
    if (w == st.head) {
      st.head = next;
    } else {
      links[prev].next = next;
    }
    if (w == st.tail) {
      st.tail = prev;
    } else {
      links[next].prev = prev;
    }
  }

  /// Make the valid way `w` the set's MRU. Its valid bit stays set, so
  /// append links it behind the current tail.
  static void touch(SetState& st, Link* links, u32 w) {
    if (w == st.tail) return;
    unlink(st, links, w);
    append(st, links, w);
  }

  /// probe_run body, specialised on the dirty flag so the inner loop is
  /// one load of the set's tail, one tag compare and (for stores) one OR
  /// per line. Consecutive lines fill consecutive sets, so the walk is
  /// chunked at set-array wrap boundaries and the inner loop advances raw
  /// pointers. The fallback scan (tail hint wrong) doubles as the victim
  /// lookup: when it ends with the line absent, it also names the slot an
  /// insert would take.
  template <bool Dirty>
  u64 probe_run_impl(LineAddr first, u64 count, PendingInsert* miss_victim) {
    const u64 sets = set_mask_ + 1;
    const u32 ways = cfg_.ways;
    u64 done = 0;
    u64 want = (first << 2) | kValid;
    u64 set = first & set_mask_;
    while (done < count) {
      const u64 chunk = std::min(count - done, sets - set);
      u64* tags = tags_.data() + set * ways;
      SetState* st = sets_.data() + set;
      u64 stop = done + chunk;
      while (done < stop) {
        // Tight hint-hit loop: no call is reachable from inside it, so its
        // state lives in scratch registers (a function call in the body
        // would force everything into callee-saved slots).
        for (; done < stop; ++done, want += 4, tags += ways, ++st) {
          u64* const t = tags + st->tail;
          if ((*t & ~kDirty) != want) break;
          if constexpr (Dirty) *t |= kDirty;
        }
        if (done == stop) break;
        // Hint missed: scan the whole set out of line.
        u64* const t = scan_set(tags, st, want, miss_victim);
        if (t == nullptr) return done;
        if constexpr (Dirty) *t |= kDirty;
        ++done;
        want += 4;
        tags += ways;
        ++st;
      }
      set = 0;
    }
    return done;
  }

  /// Fallback scan when the tail is not the line: look for `want` across
  /// the set and make it the MRU on a hit. This path is itself hot: a
  /// buffer that spans each set more than once defeats the tail hint on
  /// every re-walk. In address order such a re-walk wants each set's LRU
  /// line next, so the head is tried before the full scan. A genuine miss
  /// then reads the victim straight off the set state.
  u64* scan_set(u64* tags, SetState* st, u64 want, PendingInsert* miss_victim) {
    const u32 ways = cfg_.ways;
    const u64 set = static_cast<u64>(st - sets_.data());
    if (const u32 lru = st->head; (tags[lru] & ~kDirty) == want) {
      touch(*st, links_.data() + set * ways, lru);
      return tags + lru;
    }
    for (u32 w = 0; w < ways; ++w) {
      if ((tags[w] & ~kDirty) == want) {
        touch(*st, links_.data() + set * ways, w);
        return tags + w;
      }
    }
    if (miss_victim != nullptr) *miss_victim = pick_victim(set);
    return nullptr;
  }

  /// Index into tags_ of the line's way, or kAbsent. Tries the set's MRU
  /// way first (one compare on a streaming re-walk), then every way;
  /// invalid ways hold tag 0, which never matches.
  u64 find(LineAddr line) const {
    const u64 set = set_index(line);
    const u64 base = set * cfg_.ways;
    const u64 want = (line << 2) | kValid;
    if ((tags_[base + sets_[set].tail] & ~kDirty) == want) {
      return base + sets_[set].tail;
    }
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if ((tags_[base + w] & ~kDirty) == want) return base + w;
    }
    return kAbsent;
  }

  CacheConfig cfg_;
  u64 set_mask_ = 0;
  u64 all_ways_ = 0;
  u64 resident_ = 0;
  std::vector<u64> tags_;
  std::vector<Link> links_;
  std::vector<SetState> sets_;
};

}  // namespace saisim::mem
