// I/O-server model tests against a directly-driven server: the single
// serialized spindle, per-request seek charging, the content-addressed
// cache_hit_ratio coin flip of a server without a buffer cache, and
// fingerprints pinning the one request pipeline (CPU stage -> residency ->
// disk -> reply) across every cache and scheduler configuration.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "pfs/protocol.hpp"
#include "support/io_server_harness.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace saisim::pfs {
namespace {

constexpr u64 kStrip = 64ull << 10;

using Harness = test::IoServerHarness;

TEST(IoServerModel, DiskSerializesConcurrentRequests) {
  IoServerConfig io;
  Harness h(io);
  h.send_read(1, 0, kStrip, Time::zero());
  h.send_read(2, kStrip, kStrip, Time::zero());
  h.s.run();
  ASSERT_EQ(h.arrivals.size(), 2u);
  // The second fill queues behind the first on the single spindle: replies
  // leave (and, being equal-sized, arrive) at least one full disk access
  // apart, even though both requests hit the server back to back.
  const Time io_time = io.disk_seek + io.disk_bandwidth.transfer_time(kStrip);
  EXPECT_GE(h.arrivals[1].at - h.arrivals[0].at, io_time);
}

TEST(IoServerModel, SeekIsChargedPerRequest) {
  IoServerConfig fast;
  fast.disk_seek = Time::ms(1);
  IoServerConfig slow;
  slow.disk_seek = Time::ms(3);
  Harness hf(fast), hs(slow);
  hf.send_read(1, 0, kStrip, Time::zero());
  hs.send_read(1, 0, kStrip, Time::zero());
  hf.s.run();
  hs.s.run();
  ASSERT_EQ(hf.arrivals.size(), 1u);
  ASSERT_EQ(hs.arrivals.size(), 1u);
  // Identical network path, identical transfer: the reply shifts by
  // exactly the seek delta.
  EXPECT_EQ(hs.arrivals[0].at - hf.arrivals[0].at, Time::ms(2));
}

TEST(IoServerModel, LegacyCacheHitSkipsExactlyOneDiskAccess) {
  IoServerConfig hit;
  hit.cache_hit_ratio = 1.0;
  IoServerConfig miss;
  miss.cache_hit_ratio = 0.0;
  Harness hh(hit), hm(miss);
  hh.send_read(1, 0, kStrip, Time::zero());
  hm.send_read(1, 0, kStrip, Time::zero());
  hh.s.run();
  hm.s.run();
  ASSERT_EQ(hh.arrivals.size(), 1u);
  ASSERT_EQ(hm.arrivals.size(), 1u);
  EXPECT_EQ(hh.server.stats().cache_hits, 1u);
  EXPECT_EQ(hm.server.stats().cache_hits, 0u);
  const Time io_time =
      hit.disk_seek + hit.disk_bandwidth.transfer_time(kStrip);
  EXPECT_EQ(hm.arrivals[0].at - hh.arrivals[0].at, io_time);
}

TEST(IoServerModel, LegacyCacheHitsAreContentAddressed) {
  // The coin flip is hashed from the file offset, so *which* strips hit is
  // a property of the data: the same offsets must hit identically whether
  // they are requested front-to-back or back-to-front.
  IoServerConfig io;
  io.cache_hit_ratio = 0.5;
  Harness fwd(io), rev(io);
  constexpr int kN = 64;
  for (int i = 0; i < kN; ++i) {
    fwd.send_read(i, static_cast<u64>(i) * kStrip, 4096, Time::ms(5 * i));
    rev.send_read(i, static_cast<u64>(kN - 1 - i) * kStrip, 4096,
                  Time::ms(5 * i));
  }
  fwd.s.run();
  rev.s.run();
  const u64 hits = fwd.server.stats().cache_hits;
  EXPECT_EQ(rev.server.stats().cache_hits, hits);
  // ratio 0.5 over 64 distinct offsets: some hit, some miss.
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, static_cast<u64>(kN));
}

TEST(IoServerModel, LegacyTimelineIsDeterministic) {
  IoServerConfig io;
  io.cache_hit_ratio = 0.3;
  Harness a(io), b(io);
  for (int i = 0; i < 16; ++i) {
    a.send_read(i, static_cast<u64>(i) * kStrip, kStrip, Time::us(50 * i));
    b.send_read(i, static_cast<u64>(i) * kStrip, kStrip, Time::us(50 * i));
  }
  a.s.run();
  b.s.run();
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (u64 i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].at, b.arrivals[i].at) << "reply " << i;
    EXPECT_EQ(a.arrivals[i].packet.request, b.arrivals[i].packet.request);
  }
}

// ---- Pipeline fingerprints ------------------------------------------------
//
// Every server configuration family — thin, coin-flip residency, scheduler
// only (both disciplines), write-back and write-through cache, and cache +
// scheduler + read-ahead — driven with one seeded mixed stream. Each run is
// folded into two FNV-1a hashes: the behaviour (every reply's arrival and
// all server, cache and CPU counters) and, in tracing builds, the recorded
// event stream. The pins are the server's observable contract: a refactor
// of the request pipeline must reproduce them exactly.

struct Fnv {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(i64 v) { add(static_cast<u64>(v)); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Two processes reading strided strips (one server's view of a file
/// striped over four), rereads of strips already read, a writer rewriting
/// a small region, and two in five arrivals back to back with the last.
void drive_mixed_stream(Harness& h) {
  constexpr u64 kSpan = 16ull << 10;
  constexpr u64 kStride = 4 * kSpan;
  constexpr u64 kBase[2] = {0, 64ull << 20};
  constexpr u64 kWriteBase = 128ull << 20;
  Rng rng(0x10F00D);
  u64 next_strip[2] = {0, 0};
  std::vector<u64> read_offsets;
  Time at = Time::zero();
  for (RequestId req = 1; req <= 240; ++req) {
    if (!rng.chance(0.4)) at += Time::us(1 + static_cast<i64>(rng.below(400)));
    const u64 pick = rng.below(10);
    if (pick < 6) {
      const u64 p = pick % 2;
      const u64 offset = kBase[p] + next_strip[p]++ * kStride;
      read_offsets.push_back(offset);
      h.send_read(req, offset, kSpan, at, static_cast<ProcessId>(p + 1));
    } else if (pick < 8 && !read_offsets.empty()) {
      const u64 offset = read_offsets[rng.below(read_offsets.size())];
      h.send_read(req, offset, kSpan, at,
                  static_cast<ProcessId>(1 + rng.below(2)));
    } else {
      h.send_write(req, kWriteBase + rng.below(32) * kSpan, kSpan, at, 3);
    }
  }
}

struct Fingerprint {
  std::string behaviour;
  std::string trace;
  u64 arrivals = 0;
  std::vector<trace::Event> events;
  IoServerStats stats;
  BufferCache::Stats cache;
  ServerCpu::Stats cpu;
};

Fingerprint run_pipeline(const IoServerConfig& io,
                         const BufferCacheConfig& cache,
                         const ServerSchedConfig& sched) {
  Harness h(io, cache, sched);
  trace::Tracer tracer;
  {
    const trace::TraceScope scope(&tracer);
    drive_mixed_stream(h);
    h.s.run();
  }
  Fingerprint fp;
  fp.arrivals = h.arrivals.size();
  fp.stats = h.server.stats();
  fp.cache = h.server.cache().stats();
  fp.cpu = h.server.cpu_stats();
  Fnv b;
  for (const Harness::Arrival& a : h.arrivals) {
    b.add(a.packet.request);
    b.add(static_cast<u64>(a.packet.kind));
    b.add(static_cast<u64>(a.packet.strip_index));
    b.add(a.at.picoseconds());
  }
  const IoServerStats& st = fp.stats;
  for (u64 v : {st.requests, st.bytes_served, st.cache_hits,
                st.write_requests, st.bytes_written, st.flush_bursts}) {
    b.add(v);
  }
  b.add(st.disk_busy_ps);
  b.add(st.flush_disk_ps);
  const BufferCache::Stats& cs = fp.cache;
  for (u64 v : {cs.hits, cs.misses, cs.evictions, cs.dirty_writebacks,
                cs.flushed_blocks, cs.readahead_issued,
                cs.readahead_useful}) {
    b.add(v);
  }
  const ServerCpu::Stats& cpu = fp.cpu;
  for (u64 v : {cpu.tasks, cpu.queue_depth_sum, cpu.max_queue_depth}) {
    b.add(v);
  }
  b.add(cpu.queue_wait_ps);
  b.add(cpu.busy_ps);
  fp.behaviour = b.hex();
  fp.events = tracer.take();
  Fnv t;
  for (const trace::Event& e : fp.events) {
    t.add(e.when.picoseconds());
    t.add(static_cast<u64>(e.type));
    t.add(static_cast<i64>(e.node));
    t.add(static_cast<i64>(e.core));
    t.add(e.request);
    t.add(e.a);
    t.add(e.b);
    t.add(e.c);
  }
  fp.trace = t.hex();
  return fp;
}

u64 count_events(const Fingerprint& fp, trace::EventType type) {
  u64 n = 0;
  for (const trace::Event& e : fp.events) n += e.type == type ? 1 : 0;
  return n;
}

void expect_pins(const Fingerprint& fp, const char* behaviour,
                 const char* trace_hash) {
  EXPECT_EQ(fp.arrivals, 240u);
  EXPECT_EQ(fp.behaviour, behaviour);
#if defined(SAISIM_TRACING_ENABLED)
  EXPECT_EQ(fp.trace, trace_hash);
#else
  (void)trace_hash;
#endif
}

IoServerConfig with_ratio(double ratio) {
  IoServerConfig io;
  io.cache_hit_ratio = ratio;
  return io;
}

ServerSchedConfig sched_on(SchedDiscipline d) {
  ServerSchedConfig sched;
  sched.enabled = true;
  sched.discipline = d;
  return sched;
}

BufferCacheConfig cache_of(u64 capacity, bool write_back) {
  BufferCacheConfig cache;
  cache.capacity_bytes = capacity;
  cache.ways = 4;
  cache.write_back = write_back;
  return cache;
}

TEST(IoServerPipeline, Thin) {
  const Fingerprint fp = run_pipeline({}, {}, {});
  EXPECT_EQ(fp.stats.cache_hits, 0u);
  EXPECT_EQ(fp.cpu.tasks, 0u);
  // A thin server records only receive and send milestones.
  EXPECT_EQ(count_events(fp, trace::EventType::kServerTaskRun), 0u);
  EXPECT_EQ(count_events(fp, trace::EventType::kServerDiskDone), 0u);
  expect_pins(fp, "514d4ac2ad7f439f", "2311034e11f53c7d");
}

TEST(IoServerPipeline, ThinCoinFlip) {
  const Fingerprint fp = run_pipeline(with_ratio(0.3), {}, {});
  EXPECT_GT(fp.stats.cache_hits, 0u);
  EXPECT_EQ(count_events(fp, trace::EventType::kServerTaskRun), 0u);
  expect_pins(fp, "f661b48678878b8b", "6928d00c379fe8e5");
}

TEST(IoServerPipeline, SchedulerFifoCoinFlip) {
  const Fingerprint fp =
      run_pipeline(with_ratio(0.3), {}, sched_on(SchedDiscipline::kFifo));
  EXPECT_GT(fp.stats.cache_hits, 0u);
  EXPECT_GT(fp.cpu.queue_wait_ps, 0);
  expect_pins(fp, "8de9664a4531a550", "bdf10838fda05e7e");
}

// Without a cache there is no background (flush) work, so the two
// disciplines see one run queue and must pin the same hashes.
TEST(IoServerPipeline, SchedulerPriorityCoinFlip) {
  const Fingerprint fp =
      run_pipeline(with_ratio(0.3), {}, sched_on(SchedDiscipline::kPriority));
  EXPECT_GT(fp.stats.cache_hits, 0u);
  EXPECT_GT(fp.cpu.queue_wait_ps, 0);
  expect_pins(fp, "8de9664a4531a550", "bdf10838fda05e7e");
}

TEST(IoServerPipeline, CacheWriteBackUnderPressure) {
  // 64 KiB of 4 KiB blocks: a handful of dirty strips crosses the flush
  // high-water mark and full sets of dirty blocks force write-backs.
  BufferCacheConfig cache = cache_of(64ull << 10, /*write_back=*/true);
  cache.flush_batch = 2;
  const Fingerprint fp = run_pipeline({}, cache, {});
  EXPECT_GT(fp.stats.flush_bursts, 0u);
  EXPECT_GT(fp.cache.dirty_writebacks, 0u);
  EXPECT_GT(fp.stats.flush_disk_ps, 0);
#if defined(SAISIM_TRACING_ENABLED)
  // Bursts ahead of the first periodic tick are high-water (urgent) ones.
  u64 early_flushes = 0;
  for (const trace::Event& e : fp.events) {
    if (e.type == trace::EventType::kServerFlush &&
        e.when < cache.flush_period) {
      ++early_flushes;
    }
  }
  EXPECT_GT(early_flushes, 0u);
#endif
  expect_pins(fp, "d5e599ecd4e0c81d", "0733b323559a3067");
}

TEST(IoServerPipeline, CacheWriteThrough) {
  const Fingerprint fp =
      run_pipeline({}, cache_of(256ull << 10, /*write_back=*/false), {});
  EXPECT_EQ(fp.stats.flush_bursts, 0u);
  EXPECT_GT(fp.cache.hits, 0u);
  expect_pins(fp, "3ea407ac09291e14", "4d022b318f3117bb");
}

TEST(IoServerPipeline, CachePrioritySchedulerReadahead) {
  BufferCacheConfig cache = cache_of(1ull << 20, /*write_back=*/true);
  cache.readahead_blocks = 16;
  const Fingerprint fp =
      run_pipeline({}, cache, sched_on(SchedDiscipline::kPriority));
  EXPECT_GT(fp.cache.readahead_useful, 0u);
  EXPECT_GT(fp.cpu.tasks, fp.stats.requests + fp.stats.write_requests);
  expect_pins(fp, "9009fc083c94428d", "c25c05def0902edf");
}

}  // namespace
}  // namespace saisim::pfs
