// Streaming count and sum of a sample stream.
#pragma once

#include "util/types.hpp"

namespace saisim::stats {

class Summary {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
  }

  u64 count() const { return n_; }
  double sum() const { return sum_; }

 private:
  u64 n_ = 0;
  double sum_ = 0.0;
};

}  // namespace saisim::stats
