// Simulated physical address allocation.
//
// Buffers (I/O read buffers, per-core hot sets) get disjoint address ranges
// from a bump allocator; ranges are line-aligned so cache bookkeeping never
// splits a line between two buffers.
#pragma once

#include "util/assert.hpp"
#include "util/types.hpp"

namespace saisim::mem {

struct AddressRange {
  Address base = 0;
  u64 bytes = 0;

  Address end() const { return base + bytes; }
  bool contains(Address a) const { return a >= base && a < end(); }
};

class AddressSpace {
 public:
  explicit AddressSpace(u64 line_bytes = 64) : line_bytes_(line_bytes) {
    SAISIM_CHECK(line_bytes_ > 0);
  }

  AddressRange allocate(u64 bytes) {
    SAISIM_CHECK(bytes > 0);
    const u64 aligned = (bytes + line_bytes_ - 1) / line_bytes_ * line_bytes_;
    AddressRange r{next_, bytes};
    next_ += aligned;
    return r;
  }

  /// Return a range to the allocator's accounting. The bump allocator never
  /// reuses addresses (range disjointness is what the cache bookkeeping
  /// relies on), but failed-request buffers are released so live_bytes()
  /// reflects what the workload actually holds.
  void release(const AddressRange& r) {
    const u64 aligned =
        (r.bytes + line_bytes_ - 1) / line_bytes_ * line_bytes_;
    SAISIM_CHECK(released_ + aligned <= next_);
    released_ += aligned;
  }

  u64 live_bytes() const { return next_ - released_; }

 private:
  u64 line_bytes_;
  Address next_ = 0;
  u64 released_ = 0;
};

}  // namespace saisim::mem
