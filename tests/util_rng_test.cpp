#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace saisim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(7);
  std::set<u64> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

// below(n) draws from [0, n - 1], both ends included.
TEST(Rng, RangeInclusive) {
  Rng r(3);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    const u64 v = r.below(5);
    EXPECT_LE(v, 4u);
    lo |= v == 0;
    hi |= v == 4;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(9);
  Rng child = parent.fork();
  // Child continues to produce values unaffected by further parent draws.
  Rng parent2(9);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 10; ++i) (void)parent2.next_u64();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

TEST(Rng, Splitmix64KnownSequenceIsStable) {
  u64 s = 0;
  const u64 first = splitmix64(s);
  u64 s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
  EXPECT_NE(splitmix64(s2), first);  // second draw differs
}

}  // namespace
}  // namespace saisim
