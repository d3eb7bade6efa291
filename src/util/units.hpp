// Data-size and bandwidth helpers.
//
// Sizes are plain u64 byte counts (they appear in arithmetic with addresses
// and offsets constantly, so a strong type would mostly add friction); the
// literals below keep call sites readable. Bandwidth is a strong type because
// mixing bits/s and bytes/s is the classic networking bug.
#pragma once

#include <cassert>

#include "util/time.hpp"
#include "util/types.hpp"

namespace saisim {

inline constexpr u64 operator""_B(unsigned long long v) { return v; }
inline constexpr u64 operator""_KiB(unsigned long long v) { return v << 10; }
inline constexpr u64 operator""_MiB(unsigned long long v) { return v << 20; }
inline constexpr u64 operator""_GiB(unsigned long long v) { return v << 30; }

/// Transfer rate. Internally bytes/second.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;

  static constexpr Bandwidth bytes_per_sec(i64 v) { return Bandwidth{v}; }
  static constexpr Bandwidth mb_per_sec(i64 v) {
    return Bandwidth{v * 1'000'000};
  }
  /// Network-style decimal bits per second (a "1 Gigabit NIC" moves
  /// 125,000,000 bytes/s on the wire).
  static constexpr Bandwidth gbit(double v) {
    return Bandwidth{static_cast<i64>(v * 1e9 / 8.0)};
  }

  constexpr i64 bytes_per_second() const { return bps_; }

  /// Serialization delay for `bytes` at this rate.
  constexpr Time transfer_time(u64 bytes) const {
    assert(bps_ > 0);
    // ps = bytes * 1e12 / bps, with a 128-bit intermediate so multi-GiB
    // transfers cannot overflow.
    if (bytes > static_cast<u64>(INT64_MAX)) {
      const auto ps = static_cast<i128>(bytes) * 1'000'000'000'000 / bps_;
      return Time::ps(static_cast<i64>(ps));
    }
    return Time::ps(
        detail::muldiv(static_cast<i64>(bytes), 1'000'000'000'000, bps_));
  }

  constexpr bool is_unlimited() const { return bps_ <= 0; }
  static constexpr Bandwidth unlimited() { return Bandwidth{0}; }

  constexpr auto operator<=>(const Bandwidth&) const = default;

 private:
  explicit constexpr Bandwidth(i64 v) : bps_(v) {}
  i64 bps_ = 0;  // 0 == unlimited
};

/// Measured throughput over an interval, as the paper reports it (MB/s,
/// decimal megabytes like IOR).
inline constexpr double throughput_mbps(u64 bytes, Time elapsed) {
  if (elapsed <= Time::zero()) return 0.0;
  return static_cast<double>(bytes) / 1e6 / elapsed.seconds();
}

}  // namespace saisim
