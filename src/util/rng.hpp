// Deterministic pseudo-random number generation for the simulator.
//
// xoshiro256++ seeded via splitmix64: fast, high quality, and — unlike
// std::mt19937 plus std::uniform_int_distribution — produces identical
// sequences on every standard library, which the replay/determinism tests
// rely on.
#pragma once

#include <cassert>

#include "util/types.hpp"

namespace saisim {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
inline constexpr u64 splitmix64(u64& state) {
  state += 0x9E3779B97F4A7C15ull;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit constexpr Rng(u64 seed = 0x5A15u) {
    u64 sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  constexpr u64 next_u64() {
    const u64 result = rotl(s_[0] + s_[3], 23) + s_[0];
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  constexpr u64 below(u64 bound) {
    assert(bound > 0);
    // 128-bit multiply-shift rejection sampling.
    u64 x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    u64 low = static_cast<u64>(m);
    if (low < bound) {
      const u64 threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<u64>(m);
      }
    }
    return static_cast<u64>(m >> 64);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial.
  constexpr bool chance(double p) { return uniform() < p; }

  /// Derive an independent child stream (for per-actor RNGs that must not
  /// perturb each other's sequences when actors are added or removed).
  constexpr Rng fork() { return Rng{next_u64() ^ 0xD1B54A32D192ED03ull}; }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  u64 s_[4] = {};
};

}  // namespace saisim
