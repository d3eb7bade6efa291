// Allocation accounting for the I/O server's buffer cache: a read-only
// cache holds its tags, recency links and set states (12 B per entry) and
// nothing else; the dirty list (8 B per entry) is allocated by the first
// dirty insert and never before.
//
// This binary replaces the global operator new/delete with a counting hook
// that forwards to malloc/free, so it also runs under AddressSanitizer,
// which intercepts malloc and free.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "pfs/buffer_cache.hpp"

namespace {

bool g_counting = false;
std::size_t g_bytes = 0;
std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) {
    g_bytes += n;
    ++g_allocations;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace saisim::pfs {
namespace {

/// Counts the bytes operator new hands out while it is alive.
struct AllocCount {
  AllocCount() {
    g_bytes = 0;
    g_allocations = 0;
    g_counting = true;
  }
  ~AllocCount() { g_counting = false; }
  std::size_t bytes() const { return g_bytes; }
  std::size_t allocations() const { return g_allocations; }
};

BufferCacheConfig deep_server_cache() {
  BufferCacheConfig cfg;
  cfg.capacity_bytes = 64ull << 20;
  cfg.ways = 8;
  cfg.write_back = true;
  return cfg;
}

// The tag array is 64 B aligned by over-allocating 64 B.
constexpr std::size_t kAlignSlack = 64;

TEST(BufferCacheAlloc, CleanCacheHoldsTwelveBytesPerEntry) {
  AllocCount count;
  BufferCache c(deep_server_cache());
  const u64 entries = c.num_blocks();
  ASSERT_EQ(entries, 16384u);
  // Reads, clean fills, read-ahead and an empty flush allocate nothing.
  u64 forced = 0;
  for (u64 b = 0; b < 3 * entries; b += 7) c.lookup_or_fill(b, forced);
  c.insert(5, /*dirty=*/false, /*prefetched=*/false);
  c.readahead(1000, 3, 2, 64, forced);
  EXPECT_EQ(c.take_dirty(16), 0u);  // never dirty: no list to take from
  EXPECT_EQ(c.dirty_blocks(), 0u);
  EXPECT_EQ(forced, 0u);
  EXPECT_LE(count.bytes(), 12 * entries + kAlignSlack);
  EXPECT_EQ(count.allocations(), 3u);  // tags, links, set states
}

TEST(BufferCacheAlloc, FirstDirtyInsertAllocatesTheDirtyList) {
  BufferCache c(deep_server_cache());
  const u64 entries = c.num_blocks();
  c.insert(1, /*dirty=*/false, /*prefetched=*/false);
  {
    AllocCount count;
    c.insert(1, /*dirty=*/true, /*prefetched=*/false);  // clean turns dirty
    EXPECT_EQ(count.allocations(), 1u);
    EXPECT_EQ(count.bytes(), 8 * (entries + 1));  // the entries + sentinel
  }
  {
    // Later dirty inserts, dirty evictions and flushes reuse the list.
    AllocCount count;
    u64 forced = 0;
    for (u64 b = 0; b < 4 * entries; b += 3) {
      forced += c.insert(b, /*dirty=*/true, /*prefetched=*/false);
    }
    EXPECT_GT(forced, 0u);
    EXPECT_EQ(c.take_dirty(64), 64u);
    EXPECT_EQ(count.allocations(), 0u);
  }
  const u64 left = c.dirty_blocks();
  EXPECT_EQ(c.take_dirty(~u64{0}), left);
  EXPECT_EQ(c.dirty_blocks(), 0u);
  EXPECT_EQ(c.take_dirty(16), 0u);
}

}  // namespace
}  // namespace saisim::pfs
