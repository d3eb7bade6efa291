// PVFS-style round-robin striping: strip i of a file lives on server
// (i mod num_servers). A read of `transfer_size` bytes therefore fans out
// to min(transfer/strip, num_servers) servers — the fan-in that multiplies
// client interrupts per request.
#pragma once

#include "util/assert.hpp"
#include "util/types.hpp"

namespace saisim::pfs {

struct StripSpan {
  u64 strip_index = 0;  // global strip number within the file
  int server = 0;       // which I/O server holds it
  u64 file_offset = 0;
  u64 bytes = 0;        // <= strip_size (first/last strips may be partial)
};

class StripeLayout {
 public:
  StripeLayout(u64 strip_size, int num_servers)
      : strip_size_(strip_size), num_servers_(num_servers) {
    SAISIM_CHECK(strip_size > 0);
    SAISIM_CHECK(num_servers > 0);
  }

  u64 strip_size() const { return strip_size_; }
  int num_servers() const { return num_servers_; }

  int server_of_strip(u64 strip_index) const {
    return static_cast<int>(strip_index % static_cast<u64>(num_servers_));
  }

  /// Number of strips a byte range decomposes into — the size of the block
  /// `decompose_into` fills. Exact, so callers can allocate span storage
  /// (e.g. from an arena) without ever materialising a vector.
  u32 count_spans(u64 offset, u64 bytes) const {
    SAISIM_CHECK(bytes > 0);
    return static_cast<u32>((offset + bytes - 1) / strip_size_ -
                            offset / strip_size_ + 1);
  }

  /// Decompose a byte range into caller-provided storage holding exactly
  /// `count_spans(offset, bytes)` entries.
  void decompose_into(u64 offset, u64 bytes, StripSpan* out) const {
    SAISIM_CHECK(bytes > 0);
    u64 pos = offset;
    const u64 end = offset + bytes;
    while (pos < end) {
      const u64 strip = pos / strip_size_;
      const u64 strip_end = (strip + 1) * strip_size_;
      const u64 take = (end < strip_end ? end : strip_end) - pos;
      *out++ = StripSpan{strip, server_of_strip(strip), pos, take};
      pos += take;
    }
  }

 private:
  u64 strip_size_;
  int num_servers_;
};

}  // namespace saisim::pfs
