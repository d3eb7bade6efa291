// Set-associative private cache tag store.
//
// Models the per-core private L2 of the paper's AMD Opteron testbed
// (512 KiB, 64 B lines). Only tags and LRU state are kept — the simulator
// never stores payload bytes, it tracks *where* each line currently lives.
//
// Tags and LRU order live in util::SetAssocLru, the core the server's
// buffer cache shares (176 B per 16-way set, whose 128 B of tags are two
// whole host cache lines). A tag fuses line, valid and dirty; this class
// keeps that encoding and the walk's entry points.
//
// MemorySystem::access never scans a set: the owner directory already
// knows which core holds each line, and in which way. The cache answers
// only what the directory cannot, cheaply. probe_run() walks a contiguous
// line range with the set cursor carried between lines and consumes the
// lines it finds in one of two hint ways, the set's tail (a streaming
// re-walk matches one tag and relinks nothing) and its head (a re-walk of
// a buffer that spans each set more than once wants the LRU line next). It
// stops at the first line neither way holds. fill() places a line the
// directory has proved absent with no lookup at all, reports the way it
// took and returns the victim as the evicted way's raw tag (a Victim, one
// register). touch_way() and invalidate_way() settle a line at the way the
// directory recorded for it, checking only that way's tag.
#pragma once

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/reflect.hpp"
#include "util/set_assoc_lru.hpp"
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
    SAISIM_CHECK(cfg.ways > 0 && cfg.ways <= Lru::kMaxWays);
    SAISIM_CHECK(cfg.capacity_bytes % (cfg.line_bytes * cfg.ways) == 0);
    const u64 sets = cfg.num_sets();
    SAISIM_CHECK(std::has_single_bit(sets));
    set_mask_ = sets - 1;
    lru_ = Lru(sets, cfg.ways);
  }

  LineAddr line_of(Address addr) const { return addr / cfg_.line_bytes; }

  /// What a fill displaced: the evicted way's raw tag, 0 if the fill took
  /// an invalid way. One register, so the walk reads the victim without a
  /// round trip through memory.
  class Victim {
   public:
    constexpr Victim() = default;
    explicit constexpr Victim(u64 tag) : tag_(tag) {}
    explicit constexpr operator bool() const { return tag_ != 0; }
    constexpr LineAddr line() const { return tag_ >> 2; }
    constexpr bool dirty() const { return (tag_ & kDirty) != 0; }

   private:
    u64 tag_ = 0;
  };

  /// Hint run over the contiguous lines [first, first + count), in
  /// ascending order: consume each line held in its set's tail (MRU) or
  /// head (LRU) way, refreshing LRU and marking it dirty if `dirty`. Stops
  /// at the first line that neither way holds, without scanning the set,
  /// so a line it stops at may still be resident in another way. Returns
  /// the number of lines consumed.
  u64 probe_run(LineAddr first, u64 count, bool dirty) {
    return dirty ? probe_run_impl<true>(first, count)
                 : probe_run_impl<false>(first, count);
  }

  /// Hit on `line`, held in `way` of its set: refresh LRU and, for a
  /// store, mark the line dirty. O(1); aborts if `way` does not hold it.
  void touch_way(LineAddr line, u32 way, bool dirty) {
    const u64 set = set_index(line);
    u64& tag = held_tag(set, line, way);
    lru_.touch(set, way);
    if (dirty) tag |= kDirty;
  }

  /// Drop `line`, held in `way` of its set; returns whether it was dirty.
  /// O(1); aborts if `way` does not hold it.
  bool invalidate_way(LineAddr line, u32 way) {
    const u64 set = set_index(line);
    const bool dirty = (held_tag(set, line, way) & kDirty) != 0;
    lru_.invalidate(set, way);
    return dirty;
  }

  /// Presence check without touching LRU state. Scans the set.
  bool contains(LineAddr line) const { return find(line) != nullptr; }

  bool is_dirty(LineAddr line) const {
    const u64* tag = find(line);
    return tag != nullptr && (*tag & kDirty) != 0;
  }

  /// Insert a line the caller knows is absent (the memory walk learns it
  /// from the owner directory), with no lookup. The line takes the set's
  /// lowest invalid way, else its LRU way, whose line it evicts: the victim
  /// a full LRU lookup picks. Sets `way` to the way the line took and
  /// returns the victim. Always inlined: the walk calls it once per line.
  [[gnu::always_inline]] Victim fill(LineAddr line, bool dirty, u32& way) {
    return Victim{
        lru_.fill(set_index(line), key_of(line) | (dirty ? kDirty : 0), way)};
  }

  u64 resident_lines() const { return lru_.size(); }

 private:
  static constexpr u64 kValid = 1;
  static constexpr u64 kDirty = 2;
  using Lru = util::SetAssocLru<kDirty>;

  static u64 key_of(LineAddr line) { return (line << 2) | kValid; }
  u64 set_index(LineAddr line) const { return line & set_mask_; }

  /// The tag of `way` in `set`, which must hold `line`: the owner
  /// directory recorded that way for it.
  u64& held_tag(u64 set, LineAddr line, u32 way) {
    u64& tag = lru_.tags(set)[way];
    SAISIM_CHECK_MSG(way < cfg_.ways && (tag & ~kDirty) == key_of(line),
                     "owner map out of sync with cache");
    return tag;
  }

  /// probe_run body, specialised on the dirty flag so the inner loop is
  /// one load of the set's tail, one tag compare and (for stores) one OR
  /// per line. Consecutive lines fill consecutive sets, so the walk is
  /// chunked at set-array wrap boundaries and the inner loop advances raw
  /// pointers.
  template <bool Dirty>
  u64 probe_run_impl(LineAddr first, u64 count) {
    const u64 sets = set_mask_ + 1;
    const u32 ways = cfg_.ways;
    u64 done = 0;
    u64 want = key_of(first);
    u64 set = first & set_mask_;
    while (done < count) {
      const u64 chunk = std::min(count - done, sets - set);
      u64* tags = lru_.tags(set);
      Lru::Set* st = lru_.state(set);
      u64 stop = done + chunk;
      while (done < stop) {
        // Tight tail-hit loop: no call is reachable from inside it, so its
        // state lives in scratch registers (a function call in the body
        // would force everything into callee-saved slots).
        for (; done < stop; ++done, want += 4, tags += ways, ++st) {
          u64* const t = tags + st->tail;
          if ((*t & ~kDirty) != want) break;
          if constexpr (Dirty) *t |= kDirty;
        }
        if (done == stop) break;
        // Tail missed: try the head out of line.
        u64* const t = head_hit(tags, st, want);
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

  /// The head hint: a buffer that spans each set more than once defeats
  /// the tail hint on every re-walk, and in address order such a re-walk
  /// wants each set's LRU line next. On a match the head becomes the MRU.
  u64* head_hit(u64* tags, const Lru::Set* st, u64 want) {
    const u32 lru = st->head;
    if ((tags[lru] & ~kDirty) != want) return nullptr;
    lru_.touch(static_cast<u64>(st - lru_.state(0)), lru);
    return tags + lru;
  }

  /// The tag of `line`'s way, or nullptr if no way holds it.
  const u64* find(LineAddr line) const {
    const u64 set = set_index(line);
    const u32 way = lru_.find(set, key_of(line));
    return way == Lru::kNone ? nullptr : lru_.tags(set) + way;
  }

  CacheConfig cfg_;
  u64 set_mask_ = 0;
  Lru lru_;
};

}  // namespace saisim::mem
