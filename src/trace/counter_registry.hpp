// Named monotonic counters and latency recorders.
//
// Each subsystem stats struct has a util/reflect.hpp describe() overload,
// one line per counter; publish(registry, prefix, stats) adds every
// described field as the row `prefix.<field>`. So a new counter is one
// struct field plus one describe() line.
//
// Registration (finding or creating a named counter) takes a mutex — it is
// the cold path, done once per subsystem per run. Increments and latency
// records are lock-free relaxed atomics on stable addresses, so concurrent
// sweep workers can share one registry without contention or UB (the TSan
// job exercises exactly that). Iteration (`snapshot`) is sorted
// by name, so exported metrics are deterministic regardless of registration
// order.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats/histogram.hpp"
#include "util/reflect.hpp"
#include "util/types.hpp"

namespace saisim::trace {

class CounterRegistry {
 public:
  /// A monotonic counter. Address is stable for the registry's lifetime.
  class Counter {
   public:
    void add(u64 delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
    /// High-water marks combine by max: raises the value to at least `v`.
    void raise_to(u64 v) {
      u64 cur = v_.load(std::memory_order_relaxed);
      while (cur < v &&
             !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      }
    }
    u64 value() const { return v_.load(std::memory_order_relaxed); }

   private:
    std::atomic<u64> v_{0};
  };

  /// Log2-bucketed latency recorder (same bucketing as stats::Log2Histogram
  /// but with atomic buckets so workers can record concurrently).
  class LatencyRecorder {
   public:
    static constexpr int kBuckets = 64;

    /// Folds a per-run Log2Histogram (same bucketing) into this recorder —
    /// the end-of-run barrier merges each subsystem's single-threaded
    /// histogram rather than re-recording every sample.
    void merge(const stats::Log2Histogram& h) {
      for (int i = 0; i < kBuckets; ++i) {
        const u64 n = h.bucket(i);
        if (n) buckets_[static_cast<u64>(i)].fetch_add(
            n, std::memory_order_relaxed);
      }
      count_.fetch_add(h.count(), std::memory_order_relaxed);
      total_.fetch_add(h.total(), std::memory_order_relaxed);
    }

    u64 count() const { return count_.load(std::memory_order_relaxed); }
    u64 total() const { return total_.load(std::memory_order_relaxed); }
    u64 bucket(int i) const {
      return buckets_[static_cast<u64>(i)].load(std::memory_order_relaxed);
    }

    /// Approximate quantile: upper edge of the containing bucket (matches
    /// stats::Log2Histogram::quantile for multi-bucket data). Edge cases:
    /// empty → 0, all samples in one bucket → that bucket's midpoint, and
    /// q >= 1.0 clamps to the max populated bucket instead of overflowing
    /// the bucket scan.
    u64 quantile(double q) const;

   private:
    std::atomic<u64> buckets_[kBuckets] = {};
    std::atomic<u64> count_{0};
    std::atomic<u64> total_{0};
  };

  /// Finds or creates the named counter / recorder.
  Counter& counter(std::string_view name);
  LatencyRecorder& latency(std::string_view name);

  /// Current value of a named counter (0 if never registered).
  u64 value(std::string_view name) const;

  /// Flattened, name-sorted snapshot: plain counters as (name, value);
  /// each latency recorder expands to derived integer rows
  /// (name.count/.total/.p50/.p99).
  std::vector<std::pair<std::string, u64>> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<LatencyRecorder>, std::less<>>
      latencies_;
};

/// Adds each field a stats struct's describe() declares to a registry,
/// under a dotted prefix: summed for counters, max'd for v.maximum fields.
/// Counters are integers, so a described double or enum fails to compile.
class PublishVisitor : public util::reflect::VisitorBase<PublishVisitor> {
 public:
  PublishVisitor(CounterRegistry& registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix) + '.') {}

  template <class A>
  void int_field(const util::reflect::FieldInfo& f, A a) {
    CounterRegistry::Counter& c = registry_.counter(prefix_ + path(f.name));
    const u64 v = static_cast<u64>(a.get());
    if (f.maximum) {
      c.raise_to(v);
    } else {
      c.add(v);
    }
  }

 private:
  CounterRegistry& registry_;
  std::string prefix_;
};

template <class Stats>
void publish(CounterRegistry& registry, std::string prefix,
             const Stats& stats) {
  PublishVisitor v(registry, std::move(prefix));
  // describe() takes a mutable reference; publishing only reads.
  describe(v, const_cast<Stats&>(stats));
}

}  // namespace saisim::trace
