// Integral simulated-time type (picoseconds) plus frequency/cycle helpers.
//
// The simulator never uses floating point for the clock: a picosecond tick
// represents sub-cycle resolution at multi-GHz core frequencies, and an
// i64 count covers ~106 days of simulated time, far beyond any experiment.
#pragma once

#include <bit>
#include <cassert>
#include <compare>
#include <cstdint>
#include <ostream>
#include <string>

#include "util/types.hpp"

namespace saisim {

namespace detail {
/// Exact floor(a * b / d) for non-negative a and positive b, d, with a
/// 128-bit intermediate. The conversions below run once per scheduled work
/// segment and once per DRAM booking, and GCC lowers 128-bit division to a
/// `__divti3` call; when the product fits in 64 bits (every hot-path case —
/// cycle counts and byte backlogs are nowhere near 2^64 / 10^12) a single
/// hardware division gives the identical truncated quotient.
constexpr i64 muldiv(i64 a, i64 b, i64 d) {
  if (a >= 0) {
    const u128 p = static_cast<u128>(static_cast<u64>(a)) *
                   static_cast<u64>(b);
    if (p <= static_cast<u128>(UINT64_MAX)) {
      return static_cast<i64>(static_cast<u64>(p) / static_cast<u64>(d));
    }
  }
  return static_cast<i64>(static_cast<i128>(a) * b / d);
}

/// Exact floor(n / d) for a divisor fixed at run time, by a precomputed
/// reciprocal: one 64x64 -> 128-bit multiply and shifts instead of a
/// hardware division (the Granlund-Montgomery round-up scheme, as in
/// libdivide's u64 divider). For d = 2^k the quotient is n >> k. Otherwise,
/// with k = floor(log2 d), the magic m = floor(2^(64+k) / d) + 1 is exact
/// for every 64-bit n when d - (2^(64+k) mod d) < 2^k, and the quotient is
/// mulhi(m, n) >> k. Else m is taken at 2^(65+k); its 65th bit does not fit,
/// and the "add" step folds it back in as (((n - q) >> 1) + q) >> k.
class U64Divider {
 public:
  constexpr U64Divider() = default;
  explicit constexpr U64Divider(u64 d) : d_(d) {
    assert(d > 0);
    shift_ = static_cast<u8>(63 - std::countl_zero(d));
    if (std::has_single_bit(d)) return;  // magic_ == 0: a plain shift
    const u128 pow = u128{1} << (64 + shift_);
    u64 m = static_cast<u64>(pow / d);
    const u64 rem = static_cast<u64>(pow - static_cast<u128>(m) * d);
    if (d - rem >= (u64{1} << shift_)) {
      // floor(2^(65+k) / d) is exactly 2m (its top bit wraps away): here
      // rem <= d - 2^k < d / 2, so doubling the remainder carries nothing.
      m += m;
      add_ = true;
    }
    magic_ = m + 1;
  }

  constexpr u64 divisor() const { return d_; }

  constexpr u64 divide(u64 n) const {
    if (magic_ == 0) return n >> shift_;
    const u64 q =
        static_cast<u64>((static_cast<u128>(magic_) * n) >> 64);
    return add_ ? (((n - q) >> 1) + q) >> shift_ : q >> shift_;
  }

 private:
  u64 d_ = 1;
  u64 magic_ = 0;
  u8 shift_ = 0;
  bool add_ = false;
};
}  // namespace detail

/// A point in (or span of) simulated time, counted in integer picoseconds.
class Time {
 public:
  constexpr Time() = default;

  /// Named constructors: always say the unit at the call site.
  static constexpr Time ps(i64 v) { return Time{v}; }
  static constexpr Time ns(i64 v) { return Time{v * 1'000}; }
  static constexpr Time us(i64 v) { return Time{v * 1'000'000}; }
  static constexpr Time ms(i64 v) { return Time{v * 1'000'000'000}; }
  static constexpr Time sec(i64 v) { return Time{v * 1'000'000'000'000}; }
  static constexpr Time zero() { return Time{0}; }
  static constexpr Time max() { return Time{INT64_MAX}; }

  /// Build from a floating-point second count (used only at config
  /// boundaries, never in the hot simulation path).
  static constexpr Time from_seconds(double s) {
    return Time{static_cast<i64>(s * 1e12)};
  }

  constexpr i64 picoseconds() const { return ps_; }
  constexpr double nanoseconds() const { return static_cast<double>(ps_) / 1e3; }
  constexpr double microseconds() const { return static_cast<double>(ps_) / 1e6; }
  constexpr double milliseconds() const { return static_cast<double>(ps_) / 1e9; }
  constexpr double seconds() const { return static_cast<double>(ps_) / 1e12; }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time operator+(Time o) const { return Time{ps_ + o.ps_}; }
  constexpr Time operator-(Time o) const { return Time{ps_ - o.ps_}; }
  constexpr Time& operator+=(Time o) {
    ps_ += o.ps_;
    return *this;
  }
  constexpr Time& operator-=(Time o) {
    ps_ -= o.ps_;
    return *this;
  }
  constexpr Time operator*(i64 k) const { return Time{ps_ * k}; }
  constexpr Time operator/(i64 k) const { return Time{ps_ / k}; }
  /// Ratio of two spans (e.g. utilisation = busy / elapsed).
  constexpr double ratio(Time denom) const {
    return denom.ps_ == 0 ? 0.0
                          : static_cast<double>(ps_) / static_cast<double>(denom.ps_);
  }

  std::string to_string() const;

 private:
  explicit constexpr Time(i64 v) : ps_(v) {}
  i64 ps_ = 0;
};

inline constexpr Time operator*(i64 k, Time t) { return t * k; }

std::ostream& operator<<(std::ostream& os, Time t);

/// A CPU cycle count. Kept distinct from Time so that "cycles on which core
/// frequency?" is always answered explicitly via Frequency.
class Cycles {
 public:
  constexpr Cycles() = default;
  explicit constexpr Cycles(i64 v) : n_(v) {}
  constexpr i64 count() const { return n_; }

  constexpr auto operator<=>(const Cycles&) const = default;
  constexpr Cycles operator+(Cycles o) const { return Cycles{n_ + o.n_}; }
  constexpr Cycles operator-(Cycles o) const { return Cycles{n_ - o.n_}; }
  constexpr Cycles& operator+=(Cycles o) {
    n_ += o.n_;
    return *this;
  }
  constexpr Cycles operator*(i64 k) const { return Cycles{n_ * k}; }
  static constexpr Cycles zero() { return Cycles{0}; }

 private:
  i64 n_ = 0;
};

inline constexpr Cycles operator*(i64 k, Cycles c) { return c * k; }

/// A clock frequency; converts between Cycles and Time exactly
/// (picoseconds-per-cycle is computed with integer rounding to nearest).
class Frequency {
 public:
  constexpr Frequency() = default;
  static constexpr Frequency hz(i64 v) { return Frequency{v}; }
  static constexpr Frequency ghz(double v) {
    return Frequency{static_cast<i64>(v * 1e9)};
  }

  constexpr i64 hertz() const { return hz_; }

  /// Duration of `c` cycles at this frequency.
  constexpr Time duration(Cycles c) const {
    // ps = cycles * 1e12 / hz, via a 128-bit intermediate.
    return Time::ps(detail::muldiv(c.count(), 1'000'000'000'000, hz_));
  }

  /// Number of whole cycles elapsing in `t` (rounds down).
  constexpr Cycles cycles_in(Time t) const {
    return Cycles{detail::muldiv(t.picoseconds(), hz_, 1'000'000'000'000)};
  }

  constexpr auto operator<=>(const Frequency&) const = default;

 private:
  explicit constexpr Frequency(i64 v) : hz_(v) {}
  i64 hz_ = 1;
};

}  // namespace saisim
