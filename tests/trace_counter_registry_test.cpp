#include "trace/counter_registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cpu/core.hpp"
#include "net/fault.hpp"
#include "net/nic.hpp"
#include "pfs/io_server.hpp"
#include "pfs/pfs_client.hpp"
#include "stats/histogram.hpp"

namespace saisim::trace {
namespace {

// One sample, folded in the way a run's end-of-run barrier folds its
// histograms.
void record(CounterRegistry::LatencyRecorder& lat, u64 v) {
  stats::Log2Histogram h;
  h.add(v);
  lat.merge(h);
}

TEST(CounterRegistry, FindOrCreateIsStable) {
  CounterRegistry reg;
  CounterRegistry::Counter& a = reg.counter("nic.rx");
  a.add(3);
  // Same name → same counter object (stable address).
  EXPECT_EQ(&reg.counter("nic.rx"), &a);
  reg.counter("nic.rx").add();
  EXPECT_EQ(reg.value("nic.rx"), 4u);
}

TEST(CounterRegistry, UnregisteredValueIsZero) {
  CounterRegistry reg;
  EXPECT_EQ(reg.value("never.seen"), 0u);
}

TEST(CounterRegistry, NamesAreSorted) {
  CounterRegistry reg;
  reg.counter("zeta");
  reg.counter("alpha");
  reg.counter("mid");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "alpha");
  EXPECT_EQ(snap[2].first, "zeta");
}

TEST(CounterRegistry, SnapshotExpandsLatencyRecorders) {
  CounterRegistry reg;
  reg.counter("plain").add(5);
  record(reg.latency("lat"), 100);
  record(reg.latency("lat"), 200);
  const auto snap = reg.snapshot();
  // name-sorted: lat.count, lat.p50, lat.p99, lat.total, plain
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_EQ(snap[0].first, "lat.count");
  EXPECT_EQ(snap[0].second, 2u);
  EXPECT_EQ(snap[3].first, "lat.total");
  EXPECT_EQ(snap[3].second, 300u);
  EXPECT_EQ(snap[4].first, "plain");
  EXPECT_EQ(snap[4].second, 5u);
}

// Recording samples one by one and folding in a Log2Histogram of the same
// samples give one recorder state: both bucket by floor(log2(v)).
TEST(CounterRegistry, LatencyQuantileMatchesLog2Histogram) {
  CounterRegistry reg;
  stats::Log2Histogram h;
  CounterRegistry::LatencyRecorder& lat = reg.latency("l");
  for (u64 v : {1u, 2u, 3u, 100u, 1000u, 5000u, 5001u, 100000u}) {
    h.add(v);
    record(lat, v);
  }
  CounterRegistry::LatencyRecorder& folded = reg.latency("folded");
  folded.merge(h);
  EXPECT_EQ(lat.count(), h.count());
  EXPECT_EQ(lat.total(), h.total());
  for (int i = 0; i < CounterRegistry::LatencyRecorder::kBuckets; ++i) {
    EXPECT_EQ(lat.bucket(i), h.bucket(i)) << i;
  }
  EXPECT_EQ(lat.quantile(0.5), 1023u);     // 5th sample, bucket [512,1023]
  EXPECT_EQ(lat.quantile(0.99), 131071u);  // 8th sample, bucket 16
  EXPECT_EQ(folded.quantile(0.5), lat.quantile(0.5));
  EXPECT_EQ(folded.quantile(0.99), lat.quantile(0.99));
}

TEST(CounterRegistry, QuantileEdgeCases) {
  CounterRegistry reg;
  // Empty recorder: every quantile is 0, not a garbage sentinel.
  EXPECT_EQ(reg.latency("empty").quantile(0.5), 0u);
  EXPECT_EQ(reg.latency("empty").quantile(0.99), 0u);
  EXPECT_EQ(reg.latency("empty").quantile(1.0), 0u);

  // Single populated bucket: report the bucket midpoint, not the upper
  // edge (record(10) lands in [8,15] → 11, where the old code said 15).
  record(reg.latency("one"), 10);
  EXPECT_EQ(reg.latency("one").quantile(0.5), 11u);
  EXPECT_EQ(reg.latency("one").quantile(0.99), 11u);
  record(reg.latency("zero"), 0);  // bucket 0 spans [0,1] → midpoint 0
  EXPECT_EQ(reg.latency("zero").quantile(0.99), 0u);

  // q >= 1.0 used to fall off the end of the bucket array and return
  // ~0ull; it must clamp to the max populated bucket.
  CounterRegistry::LatencyRecorder& lat = reg.latency("multi");
  for (u64 v : {1u, 100u, 5000u}) record(lat, v);
  EXPECT_EQ(lat.quantile(1.0), lat.quantile(0.99));
  EXPECT_NE(lat.quantile(1.0), ~0ull);
}

TEST(CounterRegistry, MergeFoldsAHistogramIn) {
  CounterRegistry reg;
  stats::Log2Histogram h;
  for (u64 v = 1; v <= 64; ++v) h.add(v);
  record(reg.latency("l"), 7);
  reg.latency("l").merge(h);
  EXPECT_EQ(reg.latency("l").count(), 65u);
  EXPECT_EQ(reg.latency("l").total(), 7u + 64u * 65u / 2u);
}

// The concurrency contract: registration is mutex-guarded, increments are
// relaxed atomics on stable addresses. Run under TSan this proves the
// lock-free hot path is race-free; run plain it proves no update is lost.
TEST(CounterRegistry, ConcurrentMixedUseIsExact) {
  CounterRegistry reg;
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&reg, w] {
      for (u64 i = 0; i < kPerThread; ++i) {
        // Both paths hammered concurrently: find-or-create (two shared
        // names + one per-thread name), the atomic increments and the
        // high-water raise.
        reg.counter("shared").add();
        record(reg.latency("lat"), i + 1);
        reg.counter("own." + std::to_string(w)).add(2);
        reg.counter("max").raise_to(i + static_cast<u64>(w));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(reg.value("shared"), kThreads * kPerThread);
  EXPECT_EQ(reg.value("max"), kPerThread - 1 + (kThreads - 1));
  EXPECT_EQ(reg.latency("lat").count(), kThreads * kPerThread);
  EXPECT_EQ(reg.latency("lat").total(),
            kThreads * (kPerThread * (kPerThread + 1) / 2));
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(reg.value("own." + std::to_string(w)), 2 * kPerThread);
  }
}

TEST(CounterRegistry, RaiseToKeepsTheMaximum) {
  CounterRegistry reg;
  reg.counter("max").raise_to(5);
  reg.counter("max").raise_to(3);
  EXPECT_EQ(reg.value("max"), 5u);
  reg.counter("max").raise_to(9);
  EXPECT_EQ(reg.value("max"), 9u);
}

// ---- publish(): one registry row per described stats field -------------

/// Publishes a default `Stats`, then, for each described leaf in turn, a
/// copy with only that leaf perturbed: exactly one row may differ, and it
/// must be named `prefix.<that leaf's path>`.
template <class Stats>
void expect_one_row_per_field(const std::string& prefix) {
  SCOPED_TRACE(prefix);
  CounterRegistry base;
  publish(base, prefix, Stats{});
  const auto base_rows = base.snapshot();
  const auto fields = util::reflect::list_fields(Stats{});
  ASSERT_FALSE(fields.empty());
  ASSERT_EQ(base_rows.size(), fields.size()) << "row names are not distinct";
  for (u64 i = 0; i < fields.size(); ++i) {
    Stats perturbed{};
    ASSERT_TRUE(util::reflect::perturb_field(perturbed, i));
    CounterRegistry reg;
    publish(reg, prefix, perturbed);
    const auto rows = reg.snapshot();
    ASSERT_EQ(rows.size(), base_rows.size());
    std::vector<std::string> changed;
    for (u64 r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(rows[r].first, base_rows[r].first);
      if (rows[r].second != base_rows[r].second) {
        changed.push_back(rows[r].first);
      }
    }
    EXPECT_EQ(changed, std::vector<std::string>{prefix + "." + fields[i].path});
  }
}

TEST(Publish, EachDescribedFieldIsExactlyOneRow) {
  expect_one_row_per_field<pfs::PfsClientStats>("pfs");
  expect_one_row_per_field<pfs::ClientSchedStats>("pfs");
  expect_one_row_per_field<net::NicStats>("nic");
  expect_one_row_per_field<cpu::CoreAccounting>("cpu");
  expect_one_row_per_field<pfs::IoServerStats>("server");
  expect_one_row_per_field<pfs::BufferCache::Stats>("server.cache");
  expect_one_row_per_field<pfs::ServerCpu::Stats>("server3");
  expect_one_row_per_field<net::FaultStats>("fault");
}

// Counters sum across instances; high-water marks take the maximum.
TEST(Publish, SumsCountersAndMaxesMaxima) {
  pfs::ServerCpu::Stats a;
  a.tasks = 2;
  a.max_queue_depth = 7;
  pfs::ServerCpu::Stats b;
  b.tasks = 3;
  b.max_queue_depth = 4;
  CounterRegistry reg;
  publish(reg, "server", a);
  publish(reg, "server", b);
  EXPECT_EQ(reg.value("server.sched_tasks"), 5u);
  EXPECT_EQ(reg.value("server.sched_max_queue_depth"), 7u);
}

// A describe() line may name its row differently from the field.
TEST(Publish, RowsTakeTheirDescribedNames) {
  net::NicStats nic;
  nic.dropped = 4;
  pfs::BufferCache::Stats cache;
  cache.hits = 6;
  CounterRegistry reg;
  publish(reg, "nic", nic);
  publish(reg, "server.cache", cache);
  EXPECT_EQ(reg.value("nic.rx_dropped"), 4u);
  EXPECT_EQ(reg.value("server.cache.block_hits"), 6u);
}

}  // namespace
}  // namespace saisim::trace
