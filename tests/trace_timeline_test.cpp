// Tests for the time-resolved telemetry subsystem: the TimelineSampler
// unit behaviour (probe kinds, windowing, the edge-triggered watchdog, the
// shard merge), the ring-mode flight recorder, and the full-stack
// determinism contract — the timeline CSV of a fixed config is pinned by
// FNV-1a hash, bit-identical across sim.shards values and across reruns,
// and enabling telemetry leaves the golden metric fingerprint untouched.
// If a model change intentionally shifts the timeline, re-pin from the
// failure output's "actual" value.
#include "trace/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "stats/histogram.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace saisim::trace {
namespace {

TEST(TimelineSampler, GaugeAndCounterSeries) {
  TimelineSampler ts(Time::us(10), /*slo_window=*/4, /*flight_capacity=*/8);
  i64 gauge = 0;
  i64 cum = 0;
  ts.add_gauge("z.gauge", [&gauge] { return gauge; });
  ts.add_counter("a.counter", [&cum] { return cum; });

  gauge = 5, cum = 10;
  ts.sample(Time::us(10));
  gauge = 3, cum = 25;
  ts.sample(Time::us(20));
  gauge = 7, cum = 25;
  ts.sample(Time::us(30));

  const TimelineSeries s = merge_timelines({&ts});
  ASSERT_EQ(s.ticks, 3u);
  ASSERT_EQ(s.metrics.size(), 2u);
  // Name-sorted, regardless of registration order.
  EXPECT_EQ(s.metrics[0], "a.counter");
  EXPECT_EQ(s.metrics[1], "z.gauge");
  // Counters export per-interval deltas; gauges export raw reads.
  EXPECT_EQ(s.values[0], (std::vector<i64>{10, 15, 0}));
  EXPECT_EQ(s.values[1], (std::vector<i64>{5, 3, 7}));
  // Sample k is taken at (k + 1) * period.
  EXPECT_EQ(s.tick_time_ps(0), Time::us(10).picoseconds());
  EXPECT_EQ(s.tick_time_ps(2), Time::us(30).picoseconds());
}

TEST(TimelineSampler, WindowedP99TracksRecentSamplesOnly) {
  TimelineSampler ts(Time::us(10), /*slo_window=*/2, /*flight_capacity=*/8);
  stats::Log2Histogram h;
  ts.add_window_p99("lat", &h);

  h.add(10);  // bucket [8,15] — absorbed before the first sample
  ts.sample(Time::us(10));
  ts.sample(Time::us(20));
  h.add(1000);  // bucket [512,1023]
  ts.sample(Time::us(30));
  ts.sample(Time::us(40));

  const TimelineSeries s = merge_timelines({&ts});
  ASSERT_EQ(s.values.size(), 1u);
  // Until the window fills, the p99 covers everything since the start; a
  // single populated bucket reports its midpoint.
  EXPECT_EQ(s.values[0][0], 11);  // {10} → midpoint of [8,15]
  EXPECT_EQ(s.values[0][1], 11);  // still {10}
  // Window full (2 intervals): the base snapshot already contains the
  // early `10`, so only the recent `1000` remains in view.
  EXPECT_EQ(s.values[0][2], 767);  // {1000} → midpoint of [512,1023]
  EXPECT_EQ(s.values[0][3], 767);
}

TEST(TimelineSampler, WindowedRatePpm) {
  TimelineSampler ts(Time::us(10), /*slo_window=*/8, /*flight_capacity=*/8);
  i64 num = 0, den = 0;
  ts.add_window_rate_ppm("rate", [&num] { return num; },
                         [&den] { return den; });
  num = 1, den = 100;
  ts.sample(Time::us(10));
  num = 1, den = 100;  // no new traffic: rate holds (cumulative snapshots)
  ts.sample(Time::us(20));
  num = 11, den = 200;
  ts.sample(Time::us(30));

  const TimelineSeries s = merge_timelines({&ts});
  EXPECT_EQ(s.values[0][0], 10'000);  // 1 / 100
  EXPECT_EQ(s.values[0][1], 10'000);
  EXPECT_EQ(s.values[0][2], 55'000);  // 11 / 200
}

TEST(TimelineSampler, WatchdogIsEdgeTriggered) {
  TimelineSampler ts(Time::us(10), 4, /*flight_capacity=*/8);
  i64 gauge = 0;
  const u64 p = ts.add_gauge("depth", [&gauge] { return gauge; });
  ts.watch(p, /*threshold=*/5);

  const i64 values[] = {3, 9, 12, 4, 8, 8};
  for (int k = 0; k < 6; ++k) {
    gauge = values[k];
    ts.sample(Time::us(10 * (k + 1)));
  }
  // Two excursions above 5 → exactly two breaches, at their rising edges.
  ASSERT_EQ(ts.breaches().size(), 2u);
  EXPECT_EQ(ts.breaches()[0].tick, 1u);
  EXPECT_EQ(ts.breaches()[0].value, 9);
  EXPECT_EQ(ts.breaches()[0].threshold, 5);
  EXPECT_EQ(ts.breaches()[0].metric, "depth");
  EXPECT_EQ(ts.breaches()[0].when, Time::us(20));
  EXPECT_EQ(ts.breaches()[1].tick, 4u);
}

TEST(TimelineMerge, TruncatesRunAheadAndInterleavesByName) {
  // Rank 1 (a worker shard) sampled one extra tick inside the final
  // lookahead window; the merge truncates to rank 0's count.
  TimelineSampler rank0(Time::us(10), 4, 8);
  TimelineSampler rank1(Time::us(10), 4, 8);
  i64 a = 0, b = 100;
  rank0.add_gauge("client0.q", [&a] { return a; });
  rank1.add_gauge("server0.q", [&b] { return b; });
  a = 1, b = 101;
  rank0.sample(Time::us(10));
  rank1.sample(Time::us(10));
  a = 2, b = 102;
  rank0.sample(Time::us(20));
  rank1.sample(Time::us(20));
  b = 103;
  rank1.sample(Time::us(30));  // run-ahead tick

  const TimelineSeries s = merge_timelines({&rank0, &rank1});
  ASSERT_EQ(s.ticks, 2u);
  ASSERT_EQ(s.metrics.size(), 2u);
  EXPECT_EQ(s.metrics[0], "client0.q");
  EXPECT_EQ(s.metrics[1], "server0.q");
  EXPECT_EQ(s.values[0], (std::vector<i64>{1, 2}));
  EXPECT_EQ(s.values[1], (std::vector<i64>{101, 102}));
}

TEST(TimelineMerge, ConsumesTheSamplersAndMatchesTheirSeries) {
  // Three shards of gauges and counters fed seeded values; the workers run
  // ahead by a few ticks. The merge must give each series, truncated to
  // rank 0's ticks and with counters as deltas, sorted by name, and leave
  // every sampler without a stored value.
  Rng rng(198);
  constexpr u64 kTicks = 300;
  constexpr int kRanks = 3;
  constexpr int kPerRank = 5;
  std::vector<std::unique_ptr<TimelineSampler>> ranks;
  std::vector<i64> cur(kRanks * kPerRank, 0);
  struct Want {
    std::string name;
    bool counter;
    std::vector<i64> fed;
  };
  std::vector<Want> want;
  for (int r = 0; r < kRanks; ++r) {
    ranks.push_back(std::make_unique<TimelineSampler>(Time::us(5), 4, 8));
    for (int k = 0; k < kPerRank; ++k) {
      const u64 i = static_cast<u64>(r * kPerRank + k);
      // Names interleave the ranks, so the sort mixes them.
      char name[16];
      std::snprintf(name, sizeof name, "m%d.r%d", k, r);
      const bool counter = k % 2 == 1;
      i64* v = &cur[i];
      if (counter) {
        ranks.back()->add_counter(name, [v] { return *v; });
      } else {
        ranks.back()->add_gauge(name, [v] { return *v; });
      }
      want.push_back(Want{name, counter, {}});
    }
  }
  ranks[1]->add_gauge("alarm", [] { return i64{0}; });
  i64 alarm = 0;
  ranks[2]->watch(ranks[2]->add_gauge("z.alarm", [&alarm] { return alarm; }),
                  /*threshold=*/0);
  want.push_back(Want{"alarm", false, {}});
  want.push_back(Want{"z.alarm", false, {}});
  for (u64 t = 0; t < kTicks + 3; ++t) {
    for (u64 i = 0; i < cur.size(); ++i) {
      cur[i] = want[i].counter ? cur[i] + static_cast<i64>(rng.below(1000))
                               : static_cast<i64>(rng.below(1000)) - 500;
    }
    // An excursion every 50 ticks, and one in the run-ahead.
    alarm = t % 50 == 49 || t == kTicks + 1 ? 1 : 0;
    for (int r = 0; r < kRanks; ++r) {
      if (r == 0 && t >= kTicks) continue;  // the control shard stops
      ranks[static_cast<u64>(r)]->sample(Time::us(5 * static_cast<i64>(t + 1)));
    }
    if (t < kTicks) {
      for (u64 i = 0; i < cur.size(); ++i) want[i].fed.push_back(cur[i]);
      want[cur.size()].fed.push_back(0);
      want[cur.size() + 1].fed.push_back(alarm);
    }
  }
  ASSERT_EQ(ranks[2]->breaches().size(), 7u);  // ticks 49, ..., 299 and 301

  std::vector<TimelineSampler*> by_rank;
  for (auto& r : ranks) by_rank.push_back(r.get());
  const TimelineSeries s = merge_timelines(by_rank);

  for (auto& r : ranks) {
    EXPECT_EQ(r->held_samples(), 0u);
    EXPECT_TRUE(r->breaches().empty());
  }
  std::sort(want.begin(), want.end(),
            [](const Want& a, const Want& b) { return a.name < b.name; });
  EXPECT_EQ(s.period, Time::us(5));
  ASSERT_EQ(s.ticks, kTicks);
  ASSERT_EQ(s.metrics.size(), want.size());
  ASSERT_EQ(s.values.size(), want.size());
  for (u64 m = 0; m < want.size(); ++m) {
    EXPECT_EQ(s.metrics[m], want[m].name);
    std::vector<i64> expect = want[m].fed;
    if (want[m].counter) {
      for (u64 k = expect.size(); k-- > 1;) {
        expect[k] = want[m].fed[k] - want[m].fed[k - 1];
      }
    }
    EXPECT_EQ(s.values[m], expect) << want[m].name;
  }
  // Breaches past rank 0's last tick are dropped; the rest move over.
  ASSERT_EQ(s.breaches.size(), 6u);
  for (u64 b = 0; b < s.breaches.size(); ++b) {
    EXPECT_EQ(s.breaches[b].tick, 49 + 50 * b);
    EXPECT_EQ(s.breaches[b].metric, "z.alarm");
  }
}

TEST(Tracer, RingModeKeepsTheMostRecentEvents) {
  Tracer ring(kAllSubsystems, /*capacity=*/4, /*ring=*/true);
  for (i64 i = 0; i < 10; ++i) {
    ring.record(EventType::kNicRx, Time::ns(i), 0, 0, i);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);  // ring overwrites, never drops
  // Retained events are the last four, oldest first.
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.event(i).request, static_cast<RequestId>(6 + i));
  }
  const std::vector<Event> tail = ring.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].request, 8);
  EXPECT_EQ(tail[1].request, 9);
  // tail(n > size) returns everything retained.
  EXPECT_EQ(ring.tail(100).size(), 4u);
}

// ---- Full-stack determinism ------------------------------------------

std::string fnv1a_hex(const std::string& s) {
  u64 h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The golden_metrics_test 1 G config with telemetry armed at 1 ms.
ExperimentConfig telemetry_experiment() {
  ExperimentConfig cfg;
  cfg.num_servers = 8;
  cfg.client.nic_bandwidth = Bandwidth::gbit(1.0);
  cfg.client.nic.queues = 1;
  cfg.ior.transfer_size = 128ull << 10;
  cfg.ior.total_bytes = 2ull << 20;
  cfg.policy = PolicyKind::kIrqbalance;
  cfg.telemetry.sample_period = Time::ms(1);
  return cfg;
}

std::string timeline_csv_of(ExperimentConfig cfg) {
  RunTrace capture;
  run_experiment(cfg, &capture);
  return timeline_csv({capture});
}

TEST(TimelineDeterminism, CsvGoldenAndShardIdentity) {
  ExperimentConfig cfg = telemetry_experiment();
  const std::string serial = timeline_csv_of(cfg);
  EXPECT_FALSE(serial.empty());
  // ~78.58 ms of simulated time at a 1 ms period → 78 samples; the pinned
  // hash also locks names, ordering, and every sampled value.
  EXPECT_EQ(fnv1a_hex(serial), "ddcbce5909401a98");

  // Bit-identical across shard counts: names carry client/server indices,
  // never shard ranks, and probe values are functions of (config, seed).
  cfg.sim.shards = 4;
  EXPECT_EQ(timeline_csv_of(cfg), serial);
  cfg.sim.shards = 2;
  EXPECT_EQ(timeline_csv_of(cfg), serial);

  // And across reruns of the identical config.
  cfg.sim.shards = 1;
  EXPECT_EQ(timeline_csv_of(cfg), serial);
}

TEST(TimelineDeterminism, SamplingIsMetricsInert) {
  // Enabling the sampler must not perturb the model: the metrics of a
  // telemetry-on run must be bit-identical to the telemetry-off run (the
  // latter is additionally pinned by golden_metrics_test).
  ExperimentConfig off = telemetry_experiment();
  off.telemetry.sample_period = Time::zero();
  const RunMetrics m_off = run_experiment(off);
  const RunMetrics m_on = run_experiment(telemetry_experiment());
  EXPECT_EQ(std::bit_cast<u64>(m_off.bandwidth_mbps),
            std::bit_cast<u64>(m_on.bandwidth_mbps));
  EXPECT_EQ(std::bit_cast<u64>(m_off.l2_miss_rate),
            std::bit_cast<u64>(m_on.l2_miss_rate));
  EXPECT_EQ(std::bit_cast<u64>(m_off.unhalted_cycles),
            std::bit_cast<u64>(m_on.unhalted_cycles));
  EXPECT_EQ(m_off.elapsed, m_on.elapsed);
  EXPECT_EQ(m_off.interrupts, m_on.interrupts);
  EXPECT_EQ(m_off.c2c_transfers, m_on.c2c_transfers);
  // And the telemetry-off run reports no telemetry at all.
  EXPECT_EQ(m_off.slo_breaches, 0u);
  RunTrace capture;
  run_experiment(off, &capture);
  EXPECT_EQ(capture.timeline.ticks, 0u);
  EXPECT_TRUE(capture.timeline.metrics.empty());
  EXPECT_EQ(timeline_csv({capture}), "run,label,sample,time_us,metric,value\n");
}

TEST(TimelineDeterminism, PerfettoCounterTracksEmitted) {
  RunTrace capture;
  run_experiment(telemetry_experiment(), &capture);
  const std::string json = to_chrome_json({capture});
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"client0.pfs.inflight\",\"cat\":\"telemetry\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"server7.cpu_qdepth\""), std::string::npos);
}

TEST(TimelineDeterminism, SloBreachUnderSeededStraggler) {
  // A straggling server 0 (+5 ms on every packet it sends) against a 2 ms
  // p99 SLO: the watchdog must trip, at a pinned sample index — the breach
  // position is part of the deterministic surface.
  ExperimentConfig cfg = telemetry_experiment();
  cfg.client.pfs.retransmit_timeout = Time::ms(50);
  cfg.fault.straggler_node = 0;
  cfg.fault.straggler_delay = Time::ms(5);
  cfg.telemetry.sample_period = Time::us(500);
  cfg.telemetry.slo.p99_read_latency_us = 2000;
  cfg.telemetry.slo.window = 8;

  RunTrace capture;
  const RunMetrics m = run_experiment(cfg, &capture);
  ASSERT_GT(m.slo_breaches, 0u);
  ASSERT_FALSE(capture.timeline.breaches.empty());
  const SloBreach& first = capture.timeline.breaches.front();
  EXPECT_EQ(first.tick, 7u);
  EXPECT_EQ(first.metric, "client0.pfs.read_p99_us");
  EXPECT_GT(first.value, 2000);
  EXPECT_EQ(m.first_slo_breach_us,
            static_cast<u64>(first.when.picoseconds() / 1'000'000));
  EXPECT_LT(first.tick, capture.timeline.ticks);
#if defined(SAISIM_TRACING_ENABLED)
  // Flight recorder: the ring tracer run_experiment installs when the SLO
  // is armed without --trace must capture the events leading to the breach.
  EXPECT_FALSE(first.flight.empty());
  EXPECT_LE(first.flight.size(), ExperimentConfig{}.telemetry.flight_recorder_events);
  for (u64 i = 1; i < first.flight.size(); ++i) {
    EXPECT_LE(first.flight[i - 1].when, first.flight[i].when);
  }
#endif
  // Breaches are edge-triggered: a saturated SLO produces one breach per
  // excursion, not one per tick.
  EXPECT_LT(m.slo_breaches, capture.timeline.ticks);
}

}  // namespace
}  // namespace saisim::trace
