// Flat open-addressing map keyed by non-zero u64 ids.
//
// The PFS client's pending-request tables (RequestId -> request state) were
// std::unordered_map: one heap node per in-flight request plus bucket
// chasing on every strip arrival — on the hot path of every interrupt. This
// table is one
// contiguous slot array with power-of-two capacity, Fibonacci hashing,
// linear probing, and backward-shift deletion (no tombstones, so probe
// chains never degrade over millions of issue/complete cycles). Capacity is
// retained across erases, so steady state performs no allocation.
//
// Keys are u64 with 0 reserved as the empty marker (RequestIds start at 1).
// V must be default-constructible and move-assignable; empty slots hold a
// default-constructed V. Pointers into the table are invalidated by any
// mutation (probe chains shift), so callers re-find after erase/emplace —
// the same discipline unordered_map's iterator invalidation already forced
// on erase.
#pragma once

#include <bit>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace saisim::util {

template <class V>
class FlatIdMap {
 public:
  explicit FlatIdMap(u64 expected = 8) {
    const u64 cap = std::bit_ceil(expected < 4 ? u64{8} : expected * 2);
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  u64 size() const { return size_; }
  u64 capacity() const { return slots_.size(); }

  /// Value stored under `key`, or nullptr. Valid until the next mutation.
  V* find(u64 key) {
    return const_cast<V*>(static_cast<const FlatIdMap*>(this)->find(key));
  }
  const V* find(u64 key) const {
    SAISIM_CHECK(key != 0);
    for (u64 i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == 0) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// Insert `v` under `key`, which must be absent. Returns the stored value.
  V& emplace(u64 key, V&& v) {
    SAISIM_CHECK(key != 0);
    if (size_ * 2 >= slots_.size()) grow();
    for (u64 i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == 0) {
        s.key = key;
        s.value = std::move(v);
        ++size_;
        return s.value;
      }
      SAISIM_CHECK_MSG(s.key != key, "FlatIdMap::emplace of a present key");
    }
  }

  /// Remove `key` if present; returns whether it was. Backward-shift: the
  /// displaced tail of the probe chain moves up, the vacated slot reverts
  /// to a default V (releasing whatever the value held).
  bool erase(u64 key) {
    SAISIM_CHECK(key != 0);
    u64 i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].key == 0) return false;
      if (slots_[i].key == key) break;
    }
    u64 hole = i;
    for (u64 j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      Slot& s = slots_[j];
      if (s.key == 0) break;
      const u64 h = home(s.key);
      // s may fill the hole iff its home precedes-or-equals the hole in
      // cyclic probe order (the hole lies within s's probe chain).
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = s.key;
        slots_[hole].value = std::move(s.value);
        hole = j;
      }
    }
    slots_[hole].key = 0;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

 private:
  struct Slot {
    u64 key = 0;
    V value{};
  };

  u64 home(u64 key) const {
    return (key * 0x9E3779B97F4A7C15ull >> 17) & mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.size() * 2);
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != 0) emplace(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  u64 mask_ = 0;
  u64 size_ = 0;
};

}  // namespace saisim::util
