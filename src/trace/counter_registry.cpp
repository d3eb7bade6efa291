#include "trace/counter_registry.hpp"

#include <algorithm>

namespace saisim::trace {

u64 CounterRegistry::LatencyRecorder::quantile(double q) const {
  const u64 n = count();
  if (n == 0) return 0;
  // All samples in one bucket: the upper edge would overstate by up to 2x
  // (e.g. a single record(10) reporting p99=15), so report the bucket
  // midpoint instead.
  int populated = -1;
  for (int i = 0; i < kBuckets; ++i) {
    if (bucket(i) == 0) continue;
    if (populated >= 0) { populated = -2; break; }
    populated = i;
  }
  if (populated >= 0) {
    const u64 lower = populated == 0 ? 0 : 1ull << populated;
    const u64 upper = populated >= 63 ? ~0ull : (2ull << populated) - 1;
    return lower + (upper - lower) / 2;
  }
  // Clamp the rank to the last sample so q >= 1.0 selects the max bucket
  // instead of scanning past every populated bucket.
  u64 target = static_cast<u64>(q * static_cast<double>(n));
  if (target >= n) target = n - 1;
  u64 seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen > target) return i >= 63 ? ~0ull : (2ull << i) - 1;
  }
  return ~0ull;  // unreachable: seen reaches n > target
}

CounterRegistry::Counter& CounterRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

CounterRegistry::LatencyRecorder& CounterRegistry::latency(
    std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = latencies_.find(name);
  if (it == latencies_.end()) {
    it = latencies_
             .emplace(std::string(name), std::make_unique<LatencyRecorder>())
             .first;
  }
  return *it->second;
}

u64 CounterRegistry::value(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, u64>> CounterRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  // Both maps are name-sorted; merge them into one sorted listing (latency
  // rows sort by their expanded names, which share the recorder's prefix).
  std::vector<std::pair<std::string, u64>> out;
  out.reserve(counters_.size() + latencies_.size() * 4);
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  for (const auto& [name, r] : latencies_) {
    out.emplace_back(name + ".count", r->count());
    out.emplace_back(name + ".p50", r->quantile(0.50));
    out.emplace_back(name + ".p99", r->quantile(0.99));
    out.emplace_back(name + ".total", r->total());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace saisim::trace
