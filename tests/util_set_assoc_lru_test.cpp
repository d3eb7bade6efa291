// util::SetAssocLru layout: a set whose tags fill whole 64 B host cache
// lines starts on a line boundary, so a probe reads no line it does not
// need.
#include <gtest/gtest.h>

#include <cstdint>

#include "util/set_assoc_lru.hpp"

namespace saisim::util {
namespace {

using Lru = SetAssocLru<0>;

bool line_aligned(const u64* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(SetAssocLru, LineSizedSetsStartOnAHostLine) {
  for (u32 ways : {8u, 16u, 24u, 64u}) {
    for (u64 sets : {1ull, 3ull, 2048ull}) {
      const Lru lru(sets, ways);
      for (u64 s = 0; s < sets; ++s) {
        ASSERT_TRUE(line_aligned(lru.tags(s)))
            << ways << " ways, set " << s << " of " << sets;
      }
    }
  }
}

}  // namespace
}  // namespace saisim::util
