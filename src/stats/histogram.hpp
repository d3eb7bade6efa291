// Power-of-two bucketed histogram for latency distributions.
#pragma once

#include <array>
#include <bit>
#include <string>

#include "util/types.hpp"

namespace saisim::stats {

/// Buckets value v into bucket floor(log2(v)) (v==0 goes to bucket 0).
/// Cheap enough for per-event recording; resolution is adequate for the
/// order-of-magnitude latency questions the benches ask.
class Log2Histogram {
 public:
  static constexpr int kBuckets = 64;

  void add(u64 v) {
    const int b = v == 0 ? 0 : static_cast<int>(std::bit_width(v)) - 1;
    ++buckets_[static_cast<u64>(b)];
    ++count_;
    total_ += v;
  }

  u64 count() const { return count_; }
  u64 total() const { return total_; }

  u64 bucket(int i) const { return buckets_[static_cast<u64>(i)]; }

 private:
  std::array<u64, kBuckets> buckets_ = {};
  u64 count_ = 0;
  u64 total_ = 0;
};

}  // namespace saisim::stats
