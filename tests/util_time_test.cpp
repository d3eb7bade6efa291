#include "util/time.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace saisim {
namespace {

TEST(Time, UnitConstructorsAgree) {
  EXPECT_EQ(Time::ns(1).picoseconds(), 1000);
  EXPECT_EQ(Time::us(1), Time::ns(1000));
  EXPECT_EQ(Time::ms(1), Time::us(1000));
  EXPECT_EQ(Time::sec(1), Time::ms(1000));
  EXPECT_EQ(Time::zero().picoseconds(), 0);
}

TEST(Time, Arithmetic) {
  Time t = Time::us(3) + Time::ns(500);
  EXPECT_EQ(t.picoseconds(), 3'500'000);
  t -= Time::ns(500);
  EXPECT_EQ(t, Time::us(3));
  EXPECT_EQ(t * 4, Time::us(12));
  EXPECT_EQ(Time::us(12) / 3, Time::us(4));
  EXPECT_EQ(2 * Time::ms(5), Time::ms(10));
}

TEST(Time, Comparisons) {
  EXPECT_LT(Time::ns(999), Time::us(1));
  EXPECT_GT(Time::sec(1), Time::ms(999));
  EXPECT_LE(Time::zero(), Time::zero());
}

TEST(Time, Ratio) {
  EXPECT_DOUBLE_EQ(Time::ms(250).ratio(Time::sec(1)), 0.25);
  EXPECT_DOUBLE_EQ(Time::zero().ratio(Time::zero()), 0.0);
}

TEST(Time, FloatingViews) {
  EXPECT_DOUBLE_EQ(Time::us(1).nanoseconds(), 1000.0);
  EXPECT_DOUBLE_EQ(Time::ms(1500).seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Time::from_seconds(0.001).milliseconds(), 1.0);
}

TEST(Time, ToStringPicksUnit) {
  EXPECT_EQ(Time::ps(5).to_string(), "5ps");
  EXPECT_EQ(Time::ns(5).to_string(), "5ns");
  EXPECT_EQ(Time::us(5).to_string(), "5us");
  EXPECT_EQ(Time::ms(5).to_string(), "5ms");
  EXPECT_EQ(Time::sec(5).to_string(), "5s");
}

TEST(Frequency, CycleDurationRoundTrip) {
  const Frequency f = Frequency::ghz(2.7);
  // 2.7e9 cycles should last exactly one second.
  EXPECT_EQ(f.duration(Cycles{2'700'000'000}), Time::sec(1));
  // One cycle at 2.7 GHz is ~370 ps.
  EXPECT_EQ(f.duration(Cycles{1}).picoseconds(), 370);
}

TEST(Frequency, CyclesInWindow) {
  const Frequency f = Frequency::ghz(1.0);
  EXPECT_EQ(f.cycles_in(Time::us(1)).count(), 1000);
  EXPECT_EQ(f.cycles_in(Time::sec(2)).count(), 2'000'000'000);
}

TEST(Frequency, LargeCycleCountsDoNotOverflow) {
  const Frequency f = Frequency::ghz(3.0);
  // An hour of cycles at 3 GHz.
  const Cycles c{3'000'000'000ll * 3600};
  EXPECT_EQ(f.duration(c), Time::sec(3600));
}

// The precomputed reciprocal against the hardware division, at the edge
// divisors (1, every power of two, 3, 2^63 + 1, the largest, the DRAM rates
// the memory model uses) with numerators around multiples of each, and at
// seeded random pairs of every magnitude.
TEST(U64Divider, MatchesHardwareDivision) {
  std::vector<u64> divisors{3, (u64{1} << 63) + 1, UINT64_MAX, 5'333'000'000,
                            400'000'000};
  for (int k = 0; k < 64; ++k) divisors.push_back(u64{1} << k);
  for (const u64 d : divisors) {
    const detail::U64Divider div(d);
    EXPECT_EQ(div.divisor(), d);
    std::vector<u64> numerators{0, d - 1, d, UINT64_MAX};
    for (const u64 k : {u64{2}, u64{3}, u64{1000}, UINT64_MAX / d}) {
      const u64 kd = k * d;  // wraps for large d; any n is a fair test
      numerators.insert(numerators.end(), {kd - 1, kd, kd + 1});
    }
    for (const u64 n : numerators) {
      EXPECT_EQ(div.divide(n), n / d) << n << " / " << d;
    }
  }
  Rng rng(23);
  for (int i = 0; i < 200'000; ++i) {
    // Shifting a random word down makes every bit length equally likely.
    const u64 d = std::max<u64>(1, rng.next_u64() >> rng.below(64));
    const u64 n = rng.next_u64() >> rng.below(64);
    ASSERT_EQ(detail::U64Divider(d).divide(n), n / d) << n << " / " << d;
  }
}

TEST(Bandwidth, TransferTime) {
  const auto gig = Bandwidth::gbit(1.0);
  EXPECT_EQ(gig.bytes_per_second(), 125'000'000);
  // 125 MB at 1 Gb/s takes one second.
  EXPECT_EQ(gig.transfer_time(125'000'000), Time::sec(1));
  // 1500-byte frame at 1 Gb/s = 12 us.
  EXPECT_EQ(gig.transfer_time(1500), Time::us(12));
}

TEST(Bandwidth, UnlimitedIsZeroCost) {
  EXPECT_TRUE(Bandwidth::unlimited().is_unlimited());
}

TEST(Bandwidth, LargeTransfersDoNotOverflow) {
  const auto bw = Bandwidth::mb_per_sec(5333);
  EXPECT_NEAR(bw.transfer_time(10ull << 30).seconds(), 2.013, 0.01);
}

TEST(Units, DataSizeLiterals) {
  EXPECT_EQ(64_KiB, 65536u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, 2147483648u);
}

TEST(Units, ThroughputMbps) {
  EXPECT_DOUBLE_EQ(throughput_mbps(1'000'000, Time::sec(1)), 1.0);
  EXPECT_DOUBLE_EQ(throughput_mbps(123, Time::zero()), 0.0);
}

}  // namespace
}  // namespace saisim
