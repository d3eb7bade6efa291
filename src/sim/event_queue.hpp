// Deterministic pending-event set for the discrete-event kernel.
//
// Events are ordered by (time, sequence number): simultaneous events fire in
// the order they were scheduled, which makes every simulation run bit-for-bit
// reproducible.
//
// Layout: a pool of event slots (free-list recycled, callbacks stored
// inline via SmallFunction — the steady-state hot path performs zero heap
// allocation) plus a 4-ary min-heap of {when, seq, slot} entries, so sift
// compares read only the heap array and never a pooled slot.
// Cancellation sets a flag on the slot in O(1); a cancelled slot is
// discarded the one time it surfaces at the heap root, so the total skip
// work is bounded by the number of cancellations ever made (amortised O(1)
// per pop — see cancelled_skips() and the regression test that pins this
// bound).
#pragma once

#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/small_function.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace saisim::sim {

/// Handle identifying a scheduled event so it can be cancelled. `slot`
/// addresses the pooled storage; `seq` is the globally unique schedule
/// sequence number, which makes a stale handle (already fired, slot since
/// recycled) detectable.
struct EventHandle {
  u32 slot = 0xFFFFFFFFu;
  u64 seq = 0;
  constexpr bool valid() const { return seq != 0; }
  constexpr void reset() {
    slot = 0xFFFFFFFFu;
    seq = 0;
  }
};

class EventQueue {
 public:
  /// 128 inline bytes: sized for the kernel's biggest hot-path captures —
  /// a net::Packet (88 B) plus a this-pointer and a length rides in every
  /// link-delivery and server-reply callback, and the I/O APIC's delivery
  /// lambda carries a whole InterruptMessage (104 B). All of those stayed
  /// inline-pooled here; spilling any of them would put a heap allocation
  /// back on the per-packet path.
  using Callback = SmallFunction<void(), 128>;

  /// Schedule `fn` at absolute time `when`. `when` must not precede the
  /// last popped time (no scheduling into the past).
  EventHandle schedule(Time when, Callback fn) {
    SAISIM_CHECK_MSG(when >= last_popped_, "event scheduled into the past");
    const u64 seq = ++next_seq_;
    const u32 id = acquire_slot();
    Slot& s = slots_[id];
    s.seq = seq;
    s.fn = std::move(fn);
    heap_push(Entry{when, seq, id});
    ++live_;
    return EventHandle{id, seq};
  }

  /// Cancel a previously scheduled event in O(1). Cancelling an already-
  /// fired or already-cancelled handle is a checked error (callers own
  /// their handles).
  void cancel(EventHandle h) {
    SAISIM_CHECK(h.valid());
    SAISIM_CHECK(h.slot < slots_.size());
    Slot& s = slots_[h.slot];
    SAISIM_CHECK_MSG(s.live() && s.seq == h.seq,
                     "double-cancel (or cancel after fire) of simulation event");
    s.cancelled = true;
    s.fn.reset();  // release captured state immediately
    SAISIM_CHECK(live_ > 0);
    --live_;
  }

  bool empty() const { return live_ == 0; }
  u64 size() const { return live_; }

  /// Time of the next live event. Requires !empty().
  Time next_time() {
    skip_cancelled();
    SAISIM_CHECK(!heap_.empty());
    return heap_[0].when;
  }

  /// Pop and return the next live event.
  struct Fired {
    Time when;
    Callback fn;
  };
  Fired pop() {
    skip_cancelled();
    SAISIM_CHECK(!heap_.empty());
    const Entry top = heap_[0];
    Fired fired{top.when, std::move(slots_[top.slot].fn)};
    heap_pop_root();
    release_slot(top.slot);
    SAISIM_CHECK(live_ > 0);
    --live_;
    last_popped_ = fired.when;
    return fired;
  }

  Time last_popped() const { return last_popped_; }

  /// Cumulative number of cancelled slots discarded at the heap root.
  /// Invariant: never exceeds the number of cancel() calls ever made —
  /// each cancellation costs exactly one skip, whenever it surfaces —
  /// which is what makes pop() amortised O(1) in outstanding cancels.
  u64 cancelled_skips() const { return cancelled_skips_; }

 private:
  static constexpr u32 kNullSlot = 0xFFFFFFFFu;

  // 160 B: the 16 B-aligned callback first, so nothing pads it.
  struct Slot {
    Callback fn;
    u64 seq = 0;  // 0 while free
    u32 next_free = kNullSlot;
    bool cancelled = false;

    bool live() const { return seq != 0 && !cancelled; }
  };

  u32 acquire_slot() {
    if (free_head_ != kNullSlot) {
      const u32 id = free_head_;
      free_head_ = slots_[id].next_free;
      slots_[id].next_free = kNullSlot;
      return id;
    }
    SAISIM_CHECK(slots_.size() < kNullSlot);
    slots_.emplace_back();
    return static_cast<u32>(slots_.size() - 1);
  }

  void release_slot(u32 id) {
    Slot& s = slots_[id];
    s.seq = 0;
    s.cancelled = false;
    s.fn.reset();
    s.next_free = free_head_;
    free_head_ = id;
  }

  /// Discard cancelled slots that have reached the heap root.
  void skip_cancelled() {
    while (!heap_.empty() && slots_[heap_[0].slot].cancelled) {
      const u32 id = heap_[0].slot;
      heap_pop_root();
      release_slot(id);
      ++cancelled_skips_;
    }
  }

  // 4-ary min-heap on (when, seq). The wide fan-out halves the tree depth
  // vs a binary heap, and a sift-down's four children share one or two
  // host cache lines of the entry array. Sifts move a hole rather than
  // swapping. seq is unique, so the pop order is the (when, seq) order
  // whatever the heap's shape.
  struct Entry {
    Time when;
    u64 seq;
    u32 slot;
  };

  static bool before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void heap_push(Entry e) {
    heap_.push_back(e);
    u64 i = heap_.size() - 1;
    while (i > 0) {
      const u64 parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heap_pop_root() {
    const Entry last = heap_.back();
    heap_.pop_back();
    const u64 n = heap_.size();
    if (n == 0) return;
    u64 i = 0;
    for (;;) {
      const u64 first = 4 * i + 1;
      if (first >= n) break;
      const u64 end = first + 4 < n ? first + 4 : n;
      u64 best = first;
      for (u64 c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  std::vector<Slot> slots_;
  std::vector<Entry> heap_;
  u32 free_head_ = kNullSlot;
  u64 next_seq_ = 0;
  u64 live_ = 0;
  u64 cancelled_skips_ = 0;
  Time last_popped_ = Time::zero();
};

}  // namespace saisim::sim
