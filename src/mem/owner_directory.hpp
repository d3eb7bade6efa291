// Page-indexed directory mapping resident cache lines to their owning core.
//
// The coherence model is single-owner (MESI-lite with migratory sharing),
// so the directory is a LineAddr -> CoreId map. The memory walk enters each
// run of missing lines at once and erases evicted lines a page at a time,
// and every DMA landing sweeps it over the whole landed range. All three
// streams run in address order: a miss run fills consecutive lines, the LRU
// victims of a streamed buffer leave in the order they arrived, and a DMA
// covers one contiguous buffer. So the directory is indexed by page
// (kPageLines consecutive lines), not by line: a FlatIdMap sends a page
// number to a pooled Page that holds one owner byte per line and a presence
// mask. A walk carries a Cursor (the page it touched last), so consecutive
// lines cost one mask test and one byte access, and the hash is probed once
// per page instead of once per line. A range erase tests a page's lines
// one mask word at a time and skips an absent page after one probe.
//
// Coherence is single-owner, so the directory is also the memory walk's
// residency oracle: a line is in core C's cache exactly when the directory
// says C owns it. absent_run() reads one presence mask to tell the walk how
// many of the next lines no cache holds, so a miss run is filled from DRAM
// with no tag scan, and assign_run() enters the whole run with one mask
// write. Next to each owner byte a page keeps the way of the owner's cache
// that holds the line. page() hands the walk a present line's page, from
// which it settles the run of present lines that follows: it relinks or
// invalidates each at its recorded way, without scanning a set, and moves
// ownership by rewriting the page's bytes in place.
//
// A page whose last line leaves returns to the pool, so the population is
// bounded by the resident lines, not by the bump allocator's ever-growing
// address space. Pool pages and index slots are retained, so once the pool
// has grown to the working set the directory allocates nothing.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "mem/cache.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace saisim::mem {

class OwnerDirectory {
 public:
  /// Lines per directory page: one presence-mask word.
  static constexpr u64 kPageLines = 64;
  /// Owners are stored in one byte.
  static constexpr CoreId kMaxOwners = 256;

  /// A walk's page hint: the pool slot of the page it touched last. Any
  /// hint is safe. A stale one (page released, slot reused) fails the key
  /// check and falls back to the index probe.
  struct Cursor {
    u32 slot = kNoSlot;
  };

  /// `expected_lines` bounds the live population (e.g. the machine's total
  /// cache lines). The pool is reserved with 2x slack for partly filled
  /// pages; it grows past that if the population is sparser.
  explicit OwnerDirectory(u64 expected_lines = 256)
      : index_(pages_for(expected_lines)) {
    pages_.reserve(pages_for(expected_lines));
  }

  /// Resident lines, counted on demand (only tests read it). A pooled page
  /// (key 0) links the free list through `present`, so it counts 0.
  u64 size() const {
    u64 n = 0;
    for (const PooledPage& p : pages_) {
      if (p.key != 0) n += static_cast<u64>(std::popcount(p.present));
    }
    return n;
  }
  /// Lines the page pool holds before it has to grow.
  u64 capacity() const { return pages_.capacity() * kPageLines; }

  /// A page's lines as the walk reads and rewrites them: bit i of
  /// `present` says line i of the page has an owner, `owner[i]`, whose
  /// cache holds it in way `way[i]` of its set (ways are at most 64).
  struct Page {
    u64 present = 0;
    std::array<u8, kPageLines> owner{};
    std::array<u8, kPageLines> way{};
  };

  /// The page of `line`, which must be present (absent_run() just counted
  /// no absent line at it). The caller may rewrite the owner and way bytes
  /// of present lines; only the directory's own calls change `present`.
  /// The reference stays valid until the next call that may add a page
  /// (assign_run): erasing cannot release a page that keeps a present line.
  Page& page(Cursor& at, LineAddr line) {
    const bool found = seek(at, line);
    SAISIM_CHECK_MSG(found && (pages_[at.slot].present & bit(line)) != 0,
                     "page() of an absent line");
    return pages_[at.slot];
  }

  /// Give `owner` the `count` lines from `line`, all absent and all in
  /// `line`'s page (an absent_run result): one presence-mask write and one
  /// owner fill. Returns the run's way bytes, for the caller to set as it
  /// places each line; valid as for page().
  u8* assign_run(Cursor& at, LineAddr line, u64 count, CoreId owner) {
    SAISIM_CHECK(owner >= 0 && owner < kMaxOwners);
    const u64 off = offset(line);
    SAISIM_CHECK(count > 0 && count <= kPageLines - off);
    if (!seek(at, line)) at.slot = acquire(page_key(line));
    Page& p = pages_[at.slot];
    const u64 run = (~u64{0} >> (kPageLines - count)) << off;
    SAISIM_CHECK_MSG((p.present & run) == 0, "assign_run over a present line");
    p.present |= run;
    std::fill_n(p.owner.data() + off, count, static_cast<u8>(owner));
    return &p.way[off];
  }

  /// How many consecutive lines from `line` no cache holds, counting at
  /// most `max` and stopping at the end of `line`'s page. One presence-mask
  /// read; points `at` at the page if it exists.
  u64 absent_run(Cursor& at, LineAddr line, u64 max) const {
    const u64 room = std::min(max, kPageLines - offset(line));
    if (!seek(at, line)) return room;
    const u64 ahead = pages_[at.slot].present >> offset(line);
    return std::min(room, static_cast<u64>(std::countr_zero(ahead)));
  }

  /// Remove `line`. Returns its owner, or kNoCore if it was absent.
  CoreId erase(Cursor& at, LineAddr line) {
    if (!seek(at, line)) return kNoCore;
    Page& p = pages_[at.slot];
    const u64 b = bit(line);
    if ((p.present & b) == 0) return kNoCore;
    const CoreId owner = p.owner[offset(line)];
    p.present &= ~b;
    if (p.present == 0) release(at.slot);
    return owner;
  }

  /// The directory page of `line`, its index in that page, and its bit in
  /// that page's masks.
  static u64 page_of(LineAddr line) { return line / kPageLines; }
  static u64 offset(LineAddr line) { return line % kPageLines; }
  static u64 bit(LineAddr line) { return u64{1} << offset(line); }

  /// Remove the lines of page `page` named by `mask` (bit i is line
  /// page * kPageLines + i), all of which must be present: a page of the
  /// lines a cache just evicted. One seek and one presence-mask write for
  /// the whole batch; releases the page if it empties.
  void erase_mask(Cursor& at, u64 page, u64 mask) {
    const bool found = seek(at, page * kPageLines);
    SAISIM_CHECK_MSG(found && (pages_[at.slot].present & mask) == mask,
                     "owner map out of sync with cache");
    Page& p = pages_[at.slot];
    p.present &= ~mask;
    if (p.present == 0) release(at.slot);
  }

  /// Remove every line of [first, last], calling `on_erase(line, owner,
  /// way)` for each present one in ascending line order. `on_erase` must
  /// not use the directory. Returns the number of lines removed.
  template <class F>
  u64 erase_range(LineAddr first, LineAddr last, F&& on_erase) {
    u64 erased = 0;
    for (u64 page = first / kPageLines; page <= last / kPageLines; ++page) {
      const u32* found = index_.find(page + 1);
      if (found == nullptr) continue;
      const u32 slot = *found;
      Page& p = pages_[slot];
      const LineAddr base = page * kPageLines;
      const u64 lo = first > base ? first - base : 0;
      const u64 hi = std::min(last - base, kPageLines - 1);
      u64 hits = p.present & (~u64{0} >> (kPageLines - 1 - hi)) &
                 (~u64{0} << lo);
      if (hits == 0) continue;
      p.present &= ~hits;
      for (; hits != 0; hits &= hits - 1, ++erased) {
        const u64 i = static_cast<u64>(std::countr_zero(hits));
        on_erase(base + i, CoreId{p.owner[i]}, u32{p.way[i]});
      }
      if (p.present == 0) release(slot);
    }
    return erased;
  }

 private:
  static constexpr u32 kNoSlot = ~u32{0};

  /// A page in the pool. A free one has key 0 and links the free list
  /// through `present`.
  struct PooledPage : Page {
    u64 key = 0;  // page number + 1
  };

  static u64 pages_for(u64 lines) {
    return std::max<u64>(2, (lines + kPageLines - 1) / kPageLines * 2);
  }
  static u64 page_key(LineAddr line) { return page_of(line) + 1; }

  /// Point `at` at `line`'s page; false if that page is absent.
  bool seek(Cursor& at, LineAddr line) const {
    const u64 key = page_key(line);
    if (at.slot < pages_.size() && pages_[at.slot].key == key) return true;
    const u32* found = index_.find(key);
    if (found == nullptr) return false;
    at.slot = *found;
    return true;
  }

  u32 acquire(u64 key) {
    u32 slot = free_;
    if (slot != kNoSlot) {
      free_ = static_cast<u32>(pages_[slot].present);
    } else {
      slot = static_cast<u32>(pages_.size());
      pages_.emplace_back();
    }
    pages_[slot].key = key;
    pages_[slot].present = 0;
    index_.emplace(key, u32{slot});
    return slot;
  }

  void release(u32 slot) {
    PooledPage& p = pages_[slot];
    index_.erase(p.key);
    p.key = 0;
    p.present = free_;
    free_ = slot;
  }

  std::vector<PooledPage> pages_;
  util::FlatIdMap<u32> index_;
  u32 free_ = kNoSlot;
};

}  // namespace saisim::mem
