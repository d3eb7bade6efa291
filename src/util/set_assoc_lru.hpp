// Set-associative LRU tag store shared by the client's private L2
// (mem::Cache) and the I/O server's buffer cache (pfs::BufferCache). Each
// owner packs its key and flag bits into a u64 tag per way (0 = invalid);
// `FlagMask` names the flag bits, which find() ignores. Keys are never 0.
//
// Per way a u8 prev/next pair links the set's valid ways into a recency
// list (head = LRU, tail = MRU); per set a valid-way mask and the list's
// head and tail. Ways are set-major: tags(s)[w] is entry s * ways() + w. A
// fill takes the lowest invalid way, else the head: O(1), no scan.
//
// The tag array starts on a 64 B host cache line, so a set whose tags fill
// a whole number of lines (8, 16, ... ways) never straddles one: a probe
// of an 8-way set reads exactly one line.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace saisim::util {

/// std::allocator with its storage aligned to `Align` bytes. It takes
/// `Align` extra bytes from plain operator new and keeps the offset in the
/// byte before the aligned start. The aligned operator new would not do:
/// glibc's memalign leaves each freed block too small for the next request
/// of the same size, so a program that builds and drops the same caches
/// again and again (one cluster per experiment) grows its heap instead of
/// reusing the freed blocks.
template <class T, std::size_t Align>
struct AlignedAllocator {
  static_assert(std::has_single_bit(Align) && Align <= 128);

  using value_type = T;
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    auto* const raw =
        static_cast<unsigned char*>(::operator new(n * sizeof(T) + Align));
    const std::size_t offset =
        Align - reinterpret_cast<std::uintptr_t>(raw) % Align;  // 1..Align
    raw[offset - 1] = static_cast<unsigned char>(offset);
    return reinterpret_cast<T*>(raw + offset);
  }
  void deallocate(T* p, std::size_t) noexcept {
    auto* const start = reinterpret_cast<unsigned char*>(p);
    ::operator delete(start - start[-1]);
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) = default;
};

template <u64 FlagMask>
class SetAssocLru {
 public:
  static constexpr u32 kMaxWays = 64;  // the valid mask's width
  static constexpr u32 kNone = ~u32{0};  // find(): no way holds the key

  /// Valid ways, linked head (LRU) to tail (MRU). In an empty set head and
  /// tail are stale but still name ways of the set, whose tags are 0, so a
  /// hint compare against either simply fails.
  struct Set {
    u64 valid = 0;
    u8 head = 0;
    u8 tail = 0;
  };

  SetAssocLru() = default;
  SetAssocLru(u64 sets, u32 ways)
      : ways_(ways), tags_(sets * ways, 0), links_(sets * ways), sets_(sets) {
    SAISIM_CHECK(ways > 0 && ways <= kMaxWays);
    all_ways_ = ~u64{0} >> (kMaxWays - ways);
  }

  u32 ways() const { return ways_; }
  u64 num_sets() const { return sets_.size(); }

  u64* tags(u64 set) { return tags_.data() + set * ways_; }
  const u64* tags(u64 set) const { return tags_.data() + set * ways_; }
  Set* state(u64 set) { return sets_.data() + set; }

  /// Start loading the host cache lines a find() and fill() of `set` read:
  /// its tags, its state and its links. Always inlined: GCC deems a
  /// function whose only effect is a prefetch pure, and drops calls to it.
  [[gnu::always_inline]] void prefetch_set(u64 set) const {
    __builtin_prefetch(tags(set));
    __builtin_prefetch(sets_.data() + set);
    __builtin_prefetch(links_.data() + set * ways_);
  }

  /// The way of `set` holding `key`, or kNone. Tries the MRU way first (one
  /// compare on a streaming re-walk), then every way. No LRU side effect.
  u32 find(u64 set, u64 key) const {
    const u64* const t = tags(set);
    const u32 mru = sets_[set].tail;
    if ((t[mru] & ~FlagMask) == key) return mru;
    for (u32 w = 0; w < ways_; ++w) {
      if ((t[w] & ~FlagMask) == key) return w;
    }
    return kNone;
  }

  /// Place `tag` in `set` with no lookup: the lowest invalid way, else the
  /// LRU way. The way becomes the MRU. Sets `way` to the way taken and
  /// returns the tag it displaced (0 if the way was invalid). Always
  /// inlined: the client walk calls it once per line.
  [[gnu::always_inline]] u64 fill(u64 set, u64 tag, u32& way) {
    Set& st = sets_[set];
    Link* const links = links_.data() + set * ways_;
    u64* const t = tags_.data() + set * ways_;
    const u64 free = ~st.valid & all_ways_;
    if (free != 0) {
      way = static_cast<u32>(std::countr_zero(free));
      t[way] = tag;
      append(st, links, way);
      st.valid |= u64{1} << way;
      return 0;
    }
    way = st.head;
    const u64 victim = t[way];
    t[way] = tag;
    relink(st, links, way);
    return victim;
  }

  /// Make the valid `way` of `set` its MRU.
  void touch(u64 set, u32 way) {
    relink(sets_[set], links_.data() + set * ways_, way);
  }

  /// Drop the valid `way` of `set`: clear its tag and unlink it.
  void invalidate(u64 set, u32 way) {
    Set& st = sets_[set];
    unlink(st, links_.data() + set * ways_, way);
    st.valid &= ~(u64{1} << way);
    tags(set)[way] = 0;
  }

  /// Valid ways over all sets, counted on demand (nothing hot reads it).
  u64 size() const {
    u64 n = 0;
    for (const Set& st : sets_) n += static_cast<u64>(std::popcount(st.valid));
    return n;
  }

 private:
  struct Link {  // recency-list neighbours, as way indices in the set
    u8 prev = 0;
    u8 next = 0;
  };

  /// Link the unlinked way `w` in at the MRU end of the set's list. The
  /// list is empty only if `st.valid` is 0, so a fill sets the valid bit
  /// of `w` after this call.
  static void append(Set& st, Link* links, u32 w) {
    const u8 way = static_cast<u8>(w);
    if (st.valid == 0) {
      st.head = way;
    } else {
      links[w].prev = st.tail;
      links[st.tail].next = way;
    }
    st.tail = way;
  }

  static void unlink(Set& st, Link* links, u32 w) {
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

  /// The valid way `w` becomes the MRU. A way that is not the tail has a
  /// successor, and the list it rejoins is not empty, so this is unlink
  /// without its tail case and append without its empty case. Every link
  /// and set field is read before the first u8 store, which may alias them.
  static void relink(Set& st, Link* links, u32 w) {
    const u8 tail = st.tail;
    if (w == tail) return;
    const u8 way = static_cast<u8>(w);
    const u8 head = st.head;
    const u8 prev = links[w].prev;
    const u8 next = links[w].next;
    if (way == head) {
      st.head = next;
    } else {
      links[prev].next = next;
    }
    links[next].prev = prev;
    links[w].prev = tail;
    links[tail].next = way;
    st.tail = way;
  }

  static constexpr std::size_t kHostLine = 64;

  u32 ways_ = 0;
  u64 all_ways_ = 0;
  std::vector<u64, AlignedAllocator<u64, kHostLine>> tags_;
  std::vector<Link> links_;
  std::vector<Set> sets_;
};

}  // namespace saisim::util
