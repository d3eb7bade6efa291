#include "mem/owner_directory.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace saisim::mem {
namespace {

// The walk's page API, line by line: absent_run tells whether a line is
// present, page() reads and rewrites a present line's owner and way bytes,
// and a one-line assign_run enters an absent line.

/// The owner of `line`, or kNoCore if no cache holds it.
CoreId owner_at(OwnerDirectory& dir, LineAddr line) {
  OwnerDirectory::Cursor at;
  if (dir.absent_run(at, line, 1) != 0) return kNoCore;
  return dir.page(at, line).owner[OwnerDirectory::offset(line)];
}

/// Give `line` to `owner` as the walk does: enter it if it is absent, else
/// rewrite its page's owner byte in place. Returns the previous owner
/// (kNoCore if the line was absent) and points `way` at the line's way
/// byte, which still holds the previous owner's way.
CoreId give(OwnerDirectory& dir, OwnerDirectory::Cursor& at, LineAddr line,
            CoreId owner, u8*& way) {
  if (dir.absent_run(at, line, 1) != 0) {
    way = dir.assign_run(at, line, 1, owner);
    return kNoCore;
  }
  OwnerDirectory::Page& p = dir.page(at, line);
  const u64 i = OwnerDirectory::offset(line);
  const CoreId prev = p.owner[i];
  p.owner[i] = static_cast<u8>(owner);
  way = &p.way[i];
  return prev;
}
CoreId give(OwnerDirectory& dir, OwnerDirectory::Cursor& at, LineAddr line,
            CoreId owner) {
  u8* way = nullptr;
  return give(dir, at, line, owner, way);
}
CoreId give(OwnerDirectory& dir, LineAddr line, CoreId owner) {
  OwnerDirectory::Cursor at;
  return give(dir, at, line, owner);
}

CoreId erase(OwnerDirectory& dir, LineAddr line) {
  OwnerDirectory::Cursor at;
  return dir.erase(at, line);
}

TEST(OwnerDirectory, EmptyDirectoryHasNoPresentLine) {
  OwnerDirectory dir;
  EXPECT_EQ(owner_at(dir, 0), kNoCore);
  EXPECT_EQ(owner_at(dir, 12345), kNoCore);
  EXPECT_EQ(dir.size(), 0u);
}

TEST(OwnerDirectory, PageRewritesAnOwnerInPlace) {
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  EXPECT_EQ(dir.absent_run(at, 7, 1), 1u);
  dir.assign_run(at, 7, 1, 0);
  OwnerDirectory::Page& p = dir.page(at, 7);
  EXPECT_EQ(p.owner[7], 0);
  p.owner[7] = 3;  // an ownership move
  EXPECT_EQ(owner_at(dir, 7), 3);
  EXPECT_EQ(&dir.page(at, 7), &p);
  EXPECT_EQ(dir.size(), 1u);
}

// page() serves only present lines: the walk asks for one right after
// absent_run found the line present.
TEST(OwnerDirectory, PageOfAnAbsentLineAborts) {
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  EXPECT_DEATH(dir.page(at, 3), "page\\(\\) of an absent line");
  dir.assign_run(at, 3, 1, 2);
  EXPECT_DEATH(dir.page(at, 4), "page\\(\\) of an absent line");
  EXPECT_EQ(dir.page(at, 3).owner[3], 2);
}

TEST(OwnerDirectory, EraseReportsOwnerAndAbsence) {
  OwnerDirectory dir;
  give(dir, 42, 5);
  EXPECT_EQ(erase(dir, 42), 5);
  EXPECT_EQ(owner_at(dir, 42), kNoCore);
  EXPECT_EQ(erase(dir, 42), kNoCore);  // already gone
  EXPECT_EQ(dir.size(), 0u);
}

TEST(OwnerDirectory, OwnerZeroIsDistinctFromEmpty) {
  // Core 0 is a valid owner; the empty-slot encoding must not alias it.
  OwnerDirectory dir;
  give(dir, 1, 0);
  EXPECT_EQ(owner_at(dir, 1), 0);
  EXPECT_EQ(erase(dir, 1), 0);
}

TEST(OwnerDirectory, GrowsPastInitialCapacityWithoutLosingEntries) {
  OwnerDirectory dir(8);  // deliberately undersized
  const u64 initial_cap = dir.capacity();
  for (LineAddr line = 0; line < 1000; ++line) {
    give(dir, line, static_cast<CoreId>(line % 7));
  }
  EXPECT_GT(dir.capacity(), initial_cap);
  EXPECT_EQ(dir.size(), 1000u);
  for (LineAddr line = 0; line < 1000; ++line) {
    EXPECT_EQ(owner_at(dir, line), static_cast<CoreId>(line % 7));
  }
}

// Backward-shift deletion: erasing from the middle of a probe chain must
// keep every displaced entry reachable. Sequential lines hash to spread
// slots, so force collisions by filling a small table densely and erasing
// in a pattern that punches holes in the middle of chains.
TEST(OwnerDirectory, BackshiftDeletionKeepsCollisionChainsReachable) {
  OwnerDirectory dir(8);
  // Fill to just under the growth threshold repeatedly, erasing odd lines
  // between waves; any tombstone-style bug or bad shift condition breaks
  // lookups of the survivors.
  std::unordered_map<LineAddr, CoreId> model;
  u64 next_line = 0;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 20; ++i) {
      const LineAddr line = next_line++;
      const CoreId owner = static_cast<CoreId>(line % 5);
      give(dir, line, owner);
      model[line] = owner;
    }
    // Erase a mid-chain selection.
    std::vector<LineAddr> doomed;
    for (const auto& [line, owner] : model) {
      if (line % 3 == static_cast<u64>(wave % 3)) doomed.push_back(line);
    }
    for (const LineAddr line : doomed) {
      EXPECT_EQ(erase(dir, line), model[line]);
      model.erase(line);
    }
    for (const auto& [line, owner] : model) {
      ASSERT_EQ(owner_at(dir, line), owner)
          << "line " << line << " lost in wave " << wave;
    }
  }
  EXPECT_EQ(dir.size(), model.size());
}

// Adjacent lines (the common access pattern) plus far-apart aliases that
// collide after hashing: erase the chain head and verify the rest shift in.
TEST(OwnerDirectory, EraseHeadOfChainThenReassign) {
  OwnerDirectory dir(8);
  for (LineAddr line = 0; line < 12; ++line) give(dir, line, 1);
  for (LineAddr line = 0; line < 12; line += 2) erase(dir, line);
  for (LineAddr line = 1; line < 12; line += 2) {
    EXPECT_EQ(owner_at(dir, line), 1);
  }
  // Reinsert into the holes and re-check everything.
  for (LineAddr line = 0; line < 12; line += 2) give(dir, line, 2);
  for (LineAddr line = 0; line < 12; ++line) {
    EXPECT_EQ(owner_at(dir, line), line % 2 == 0 ? 2 : 1);
  }
}

// A cursor is only a hint. After its page is released and the pool slot is
// reused for another page, a walk through the stale cursor must still see
// the right lines.
TEST(OwnerDirectory, StaleCursorFallsBackToIndex) {
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  EXPECT_EQ(give(dir, at, 5, 1), kNoCore);
  EXPECT_EQ(dir.erase(at, 5), 1);  // page 0 empties and is released
  // Page 10 takes page 0's pool slot, which `at` still names.
  const LineAddr far = 10 * OwnerDirectory::kPageLines + 5;
  EXPECT_EQ(give(dir, far, 2), kNoCore);
  EXPECT_EQ(dir.erase(at, 5), kNoCore);
  EXPECT_EQ(give(dir, at, 5, 3), kNoCore);
  EXPECT_EQ(owner_at(dir, 5), 3);
  EXPECT_EQ(owner_at(dir, far), 2);
  EXPECT_EQ(dir.size(), 2u);
}

// ---- absent_run: the memory walk's fill-run oracle ------------------------

TEST(OwnerDirectory, AbsentRunOverAnAbsentPage) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  EXPECT_EQ(dir.absent_run(at, 5, 1000), P - 5);
  give(dir, 3 * P, 1);  // another page being present changes nothing
  EXPECT_EQ(dir.absent_run(at, P + 5, 1000), P - 5);
}

TEST(OwnerDirectory, AbsentRunStopsAtThePageEnd) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  give(dir, at, 2, 0);  // page 0 exists, its tail is empty
  // Page 1 is absent too, but the run never crosses into it.
  EXPECT_EQ(dir.absent_run(at, P - 4, 100), 4u);
  EXPECT_EQ(dir.absent_run(at, P - 1, 100), 1u);
}

TEST(OwnerDirectory, AbsentRunStopsAtMax) {
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  give(dir, at, 40, 0);
  EXPECT_EQ(dir.absent_run(at, 3, 10), 10u);
  EXPECT_EQ(dir.absent_run(at, 3, 1), 1u);
  EXPECT_EQ(dir.absent_run(at, 100, 7), 7u);  // absent page
}

TEST(OwnerDirectory, AbsentRunStopsAtAPresentLine) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  give(dir, at, P + 10, 2);
  give(dir, at, P + 11, 3);
  EXPECT_EQ(dir.absent_run(at, P + 3, 100), 7u);
  EXPECT_EQ(dir.absent_run(at, P + 10, 100), 0u);
  EXPECT_EQ(dir.absent_run(at, P + 11, 100), 0u);
  EXPECT_EQ(dir.absent_run(at, P + 12, 100), P - 12);
  give(dir, at, P + 63, 4);  // the page's last line
  EXPECT_EQ(dir.absent_run(at, P + 12, 100), 63u - 12);
}

// A stale cursor names a pool slot another page now uses; absent_run must
// read the right page's mask, not that slot's.
TEST(OwnerDirectory, AbsentRunThroughAStaleCursor) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  give(dir, at, 5, 1);
  dir.erase(at, 5);  // page 0 is released; `at` still names its slot
  give(dir, 10 * P + 5, 2);  // page 10 takes the slot, line 5 present
  EXPECT_EQ(dir.absent_run(at, 5, 100), P - 5);
  give(dir, 7, 3);  // page 0 returns in another slot
  EXPECT_EQ(dir.absent_run(at, 5, 100), 2u);
  EXPECT_EQ(dir.absent_run(at, 10 * P + 4, 100), 1u);
}

// The DMA sweep: partial first and last pages, an absent page inside the
// range, lines outside it untouched, callbacks in ascending line order.
TEST(OwnerDirectory, EraseRangeReportsPresentLinesInOrder) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  const auto owner_of = [](LineAddr l) { return static_cast<CoreId>(l % 7); };
  for (const LineAddr l : {P - 2, P - 1, P, 3 * P + 3, 4 * P - 1, 4 * P,
                           4 * P + 1}) {
    give(dir, l, owner_of(l));
  }
  std::vector<std::pair<LineAddr, CoreId>> seen;
  const u64 erased =
      dir.erase_range(P - 1, 4 * P, [&](LineAddr l, CoreId o, u32) {
        seen.emplace_back(l, o);
      });
  std::vector<std::pair<LineAddr, CoreId>> want;
  for (const LineAddr l : {P - 1, P, 3 * P + 3, 4 * P - 1, 4 * P}) {
    want.emplace_back(l, owner_of(l));
  }
  EXPECT_EQ(seen, want);
  EXPECT_EQ(erased, want.size());
  EXPECT_EQ(dir.size(), 2u);
  EXPECT_EQ(owner_at(dir, P - 2), owner_of(P - 2));
  EXPECT_EQ(owner_at(dir, 4 * P + 1), owner_of(4 * P + 1));
  EXPECT_EQ(dir.erase_range(0, 10 * P, [](LineAddr, CoreId, u32) {}), 2u);
  EXPECT_EQ(dir.size(), 0u);
}

// ---- Way bytes and the bulk fill-run assign --------------------------------

/// Every present line of [first, last] as (line, owner, way), via the DMA
/// sweep, which empties the range.
std::vector<std::tuple<LineAddr, CoreId, u32>> drain(OwnerDirectory& dir,
                                                     LineAddr first,
                                                     LineAddr last) {
  std::vector<std::tuple<LineAddr, CoreId, u32>> out;
  dir.erase_range(first, last, [&](LineAddr l, CoreId o, u32 w) {
    out.emplace_back(l, o, w);
  });
  return out;
}

// A fresh line's way byte is the caller's to set, and page() shows a
// present line's way byte, still holding its owner's way, where the walk
// rewrites it when the line moves.
TEST(OwnerDirectory, PageExposesTheWayByte) {
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  u8* const way = dir.assign_run(at, 9, 1, 1);
  *way = 13;
  OwnerDirectory::Page& p = dir.page(at, 9);
  EXPECT_EQ(&p.way[9], way);
  EXPECT_EQ(p.way[9], 13);
  p.owner[9] = 4;
  p.way[9] = 2;
  EXPECT_EQ(drain(dir, 0, 100),
            (std::vector<std::tuple<LineAddr, CoreId, u32>>{{9, 4, 2}}));
}

TEST(OwnerDirectory, EraseRangeReportsEachLinesWay) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  std::vector<std::tuple<LineAddr, CoreId, u32>> want;
  for (const LineAddr l : {P - 1, P, P + 7, 3 * P + 63}) {
    u8* way = nullptr;
    give(dir, at, l, static_cast<CoreId>(l % 5), way);
    *way = static_cast<u8>(l % 64);
    want.emplace_back(l, static_cast<CoreId>(l % 5), static_cast<u32>(l % 64));
  }
  EXPECT_EQ(drain(dir, 0, 4 * P), want);
  EXPECT_EQ(dir.size(), 0u);
}

TEST(OwnerDirectory, AssignRunFillsAWholePage) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  ASSERT_EQ(dir.absent_run(at, 2 * P, 1000), P);
  u8* const ways = dir.assign_run(at, 2 * P, P, 6);
  for (u64 i = 0; i < P; ++i) ways[i] = static_cast<u8>(P - 1 - i);
  EXPECT_EQ(dir.size(), P);
  EXPECT_EQ(dir.absent_run(at, 2 * P, 1000), 0u);
  EXPECT_EQ(owner_at(dir, 2 * P - 1), kNoCore);
  EXPECT_EQ(owner_at(dir, 3 * P), kNoCore);
  std::vector<std::tuple<LineAddr, CoreId, u32>> want;
  for (u64 i = 0; i < P; ++i) {
    want.emplace_back(2 * P + i, 6, static_cast<u32>(P - 1 - i));
  }
  EXPECT_EQ(drain(dir, 0, 10 * P), want);
}

// A run inside a page that has other owners: only the run's bits, owner
// bytes and way bytes change.
TEST(OwnerDirectory, AssignRunAtAnOffsetLeavesItsNeighbours) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  u8* way = nullptr;
  give(dir, at, P + 3, 1, way);
  *way = 7;
  give(dir, at, P + 20, 2, way);
  *way = 8;
  ASSERT_EQ(dir.absent_run(at, P + 4, 1000), 16u);
  u8* const ways = dir.assign_run(at, P + 4, 10, 3);
  for (u64 i = 0; i < 10; ++i) ways[i] = static_cast<u8>(i);
  EXPECT_EQ(dir.size(), 12u);
  EXPECT_EQ(dir.absent_run(at, P + 14, 1000), 6u);
  EXPECT_EQ(owner_at(dir, P + 2), kNoCore);
  std::vector<std::tuple<LineAddr, CoreId, u32>> want{{P + 3, 1, 7}};
  for (u64 i = 0; i < 10; ++i) {
    want.emplace_back(P + 4 + i, 3, static_cast<u32>(i));
  }
  want.emplace_back(P + 20, 2, 8);
  EXPECT_EQ(drain(dir, P, 2 * P - 1), want);
}

// The run's page does not exist yet: assign_run creates it, and the page
// returns to the pool once the run's lines leave again.
TEST(OwnerDirectory, AssignRunCreatesAnAbsentPage) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  give(dir, at, 0, 0);  // another page; `at` points at it
  ASSERT_EQ(dir.absent_run(at, 5 * P + 60, 100), 4u);
  u8* const ways = dir.assign_run(at, 5 * P + 60, 4, 9);
  for (u64 i = 0; i < 4; ++i) ways[i] = static_cast<u8>(40 + i);
  EXPECT_EQ(dir.size(), 5u);
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(owner_at(dir, 5 * P + 60 + i), 9);
  EXPECT_EQ(owner_at(dir, 0), 0);
  EXPECT_EQ(drain(dir, 5 * P, 6 * P),
            (std::vector<std::tuple<LineAddr, CoreId, u32>>{
                {5 * P + 60, 9, 40},
                {5 * P + 61, 9, 41},
                {5 * P + 62, 9, 42},
                {5 * P + 63, 9, 43}}));
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.absent_run(at, 5 * P, 100), P);
}

// Simulated addresses only grow (the bump allocator never reuses them), so
// a directory that kept emptied pages would grow without bound. A window
// sliding over fresh addresses must keep the pool at its reserved size.
TEST(OwnerDirectory, SlidingWindowReusesReleasedPages) {
  constexpr LineAddr kWindow = 256;
  OwnerDirectory dir(kWindow);
  const u64 reserved = dir.capacity();
  OwnerDirectory::Cursor fill, evict;
  for (LineAddr line = 0; line < 100 * kWindow; ++line) {
    ASSERT_EQ(give(dir, fill, line, 0), kNoCore);
    if (line >= kWindow) {
      ASSERT_EQ(dir.erase(evict, line - kWindow), 0);
    }
  }
  EXPECT_EQ(dir.size(), kWindow);
  EXPECT_EQ(dir.capacity(), reserved);
}

// ---- erase_mask: a page of the walk's victims at once ---------------------

// One mask names lines from two separate runs of a page; their neighbours
// and the page's other owner stay.
TEST(OwnerDirectory, EraseMaskOverTwoRunsOfOnePage) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  dir.assign_run(at, 3 * P, 8, 2);
  dir.assign_run(at, 3 * P + 20, 10, 2);
  give(dir, at, 3 * P + 40, 5);
  u64 mask = 0;
  for (u64 i = 1; i < 6; ++i) mask |= OwnerDirectory::bit(3 * P + i);
  for (u64 i = 22; i < 30; ++i) mask |= OwnerDirectory::bit(3 * P + i);
  OwnerDirectory::Cursor evict;
  dir.erase_mask(evict, 3, mask);
  EXPECT_EQ(dir.size(), 19u - 13u);
  for (u64 i = 0; i < P; ++i) {
    const bool kept = i == 0 || i == 6 || i == 7 || i == 20 || i == 21;
    const CoreId want = kept ? 2 : i == 40 ? 5 : kNoCore;
    EXPECT_EQ(owner_at(dir, 3 * P + i), want) << i;
  }
}

// A mask that takes a page's last lines releases the page, and the next
// assign_run reuses its pool slot instead of growing the pool.
TEST(OwnerDirectory, EraseMaskReleasesAnEmptiedPageForReuse) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir(P);  // a pool of two pages
  const u64 reserved = dir.capacity();
  OwnerDirectory::Cursor at, evict;
  dir.assign_run(at, 0, P, 1);
  dir.assign_run(at, P + 16, 32, 1);
  dir.erase_mask(evict, 1, ((u64{1} << 32) - 1) << 16);
  EXPECT_EQ(dir.size(), P);
  EXPECT_EQ(dir.absent_run(at, P, 1000), P);  // page 1 is gone
  u8* const ways = dir.assign_run(at, 9 * P, P, 3);
  ways[0] = 11;
  EXPECT_EQ(dir.capacity(), reserved);
  EXPECT_EQ(dir.size(), 2 * P);
  EXPECT_EQ(owner_at(dir, P + 16), kNoCore);
  EXPECT_EQ(owner_at(dir, 9 * P), 3);
  EXPECT_EQ(owner_at(dir, 0), 1);
  // `evict` names the slot page 9 took over, and the key check accepts it.
  dir.erase_mask(evict, 9, OwnerDirectory::bit(9 * P));
  EXPECT_EQ(owner_at(dir, 9 * P), kNoCore);
  EXPECT_EQ(dir.size(), 2 * P - 1);
}

// Every masked line must be present: the directory and the caches
// disagree otherwise.
TEST(OwnerDirectory, EraseMaskOfAnAbsentLineAborts) {
  constexpr u64 P = OwnerDirectory::kPageLines;
  OwnerDirectory dir;
  OwnerDirectory::Cursor at;
  dir.assign_run(at, P, 4, 1);
  EXPECT_DEATH(dir.erase_mask(at, 1, 0b10010), "owner map out of sync");
  EXPECT_DEATH(dir.erase_mask(at, 2, 0b1), "owner map out of sync");
  dir.erase_mask(at, 1, 0b1111);
  EXPECT_EQ(dir.size(), 0u);
}

// Cursor walks, point erases, fill runs and range erases, checked against
// an ordered map of (owner, way) after every step.
TEST(OwnerDirectory, MatchesMapModelUnderMixedOperations) {
  OwnerDirectory dir(64);
  std::map<LineAddr, std::pair<CoreId, u32>> model;
  Rng rng(11);
  OwnerDirectory::Cursor at;
  u64 runs = 0;
  for (int step = 0; step < 20'000; ++step) {
    const LineAddr line = rng.below(2048);
    const auto it = model.find(line);
    const CoreId present = it == model.end() ? kNoCore : it->second.first;
    switch (rng.below(4)) {
      case 0: {
        const auto owner = static_cast<CoreId>(rng.below(8));
        u8* way = nullptr;
        ASSERT_EQ(give(dir, at, line, owner, way), present)
            << "step " << step;
        if (present != kNoCore) {
          ASSERT_EQ(*way, it->second.second) << "step " << step;
        }
        *way = static_cast<u8>(rng.below(64));
        model[line] = {owner, *way};
        break;
      }
      case 1:
        ASSERT_EQ(dir.erase(at, line), present) << "step " << step;
        model.erase(line);
        break;
      case 2: {
        const u64 absent = dir.absent_run(at, line, 1 + rng.below(80));
        if (absent == 0) break;
        ++runs;
        const auto owner = static_cast<CoreId>(rng.below(8));
        u8* const ways = dir.assign_run(at, line, absent, owner);
        for (u64 i = 0; i < absent; ++i) {
          ASSERT_EQ(model.count(line + i), 0u) << "step " << step;
          ways[i] = static_cast<u8>(rng.below(64));
          model[line + i] = {owner, ways[i]};
        }
        break;
      }
      default: {
        const LineAddr last = line + rng.below(200);
        std::vector<std::tuple<LineAddr, CoreId, u32>> seen, want;
        dir.erase_range(line, last, [&](LineAddr l, CoreId o, u32 w) {
          seen.emplace_back(l, o, w);
        });
        for (auto m = model.lower_bound(line);
             m != model.end() && m->first <= last;) {
          want.emplace_back(m->first, m->second.first, m->second.second);
          m = model.erase(m);
        }
        ASSERT_EQ(seen, want) << "step " << step;
      }
    }
    ASSERT_EQ(dir.size(), model.size()) << "step " << step;
  }
  EXPECT_GT(runs, 1000u);
  for (const auto& [line, entry] : model) {
    ASSERT_EQ(owner_at(dir, line), entry.first);
  }
}

}  // namespace
}  // namespace saisim::mem
