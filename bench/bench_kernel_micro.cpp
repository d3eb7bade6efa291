// Microbenchmarks for the DES kernel hot paths: the per-64B-line memory
// walk, owner-directory churn, the event queue, the I/O servers' read-ahead
// probes and cache builds, and one small end-to-end experiment. These are
// the structures the figure sweeps spend their time in, so
// `tools/perf_baseline.py` runs this binary (plus a timed figure bench) and
// records the results in BENCH_kernel.json — the repo's perf trajectory.
// CI runs it with
// --benchmark_min_time=1x as a smoke test.
//
// All benchmarks are deterministic (fixed seeds, fixed walk orders); they
// measure the kernel's data structures, not the model, so DRAM bandwidth is
// left unlimited except in the write-fill walk, the strip hand-off, the DMA
// strip read and the end-to-end case.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/experiment.hpp"
#include "mem/memory_system.hpp"
#include "pfs/buffer_cache.hpp"
#include "sim/event_queue.hpp"
#include "sweep/cli.hpp"
#include "sweep/cli_config.hpp"
#include "util/rng.hpp"

namespace saisim {
namespace {

sweep::CliOptions& cli() {
  static sweep::CliOptions opts;
  return opts;
}

/// The end-to-end case's config, with the shared --config/--set/
/// --dump-config flags applied on top (the data-structure microbenches
/// take no config).
const ExperimentConfig& small_config() {
  static const ExperimentConfig resolved = [] {
    ExperimentConfig cfg;
    cfg.num_servers = 8;
    cfg.client.nic_bandwidth = Bandwidth::gbit(1.0);
    cfg.client.nic.queues = 1;
    cfg.ior.transfer_size = 128ull << 10;
    cfg.ior.total_bytes = 2ull << 20;
    sweep::resolve_config(cli(), cfg);
    return cfg;
  }();
  return resolved;
}

constexpr Frequency kFreq = Frequency::ghz(2.7);
constexpr u64 kLine = 64;
constexpr u64 kStrip = 64ull << 10;  // one PFS strip

mem::MemorySystem make_mem(int cores = 8) {
  return mem::MemorySystem(cores, mem::CacheConfig{}, mem::MemoryTimings{},
                           kFreq, Bandwidth::unlimited());
}

/// Streaming cold walk: every line misses to DRAM; exercises insert,
/// eviction, and the owner-directory insert/erase pair per line.
void BM_MemWalkColdStream(benchmark::State& state) {
  auto ms = make_mem();
  const u64 region = 64ull << 20;  // far beyond the 512 KiB L2
  Address cursor = 0;
  Time now = Time::zero();
  for (auto _ : state) {
    const Time stall = ms.access(0, cursor, kStrip,
                                 mem::MemorySystem::AccessType::kRead, now,
                                 /*reuse_per_line=*/1);
    benchmark::DoNotOptimize(stall);
    now += stall;
    cursor = (cursor + kStrip) % region;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kStrip));
}
BENCHMARK(BM_MemWalkColdStream);

/// Write-fill walk: fresh buffers written with block reuse under the
/// client's default DRAM bandwidth (5333 MB/s). Once the L2 is full every
/// line is a DRAM fill that evicts a dirty line, so each miss books a fill
/// and a write-back: the writers' client pattern.
void BM_MemWalkWriteFill(benchmark::State& state) {
  mem::MemorySystem ms(8, mem::CacheConfig{}, mem::MemoryTimings{}, kFreq,
                       Bandwidth::mb_per_sec(5333));
  const u64 region = 64ull << 20;
  Address cursor = 0;
  Time now = Time::zero();
  for (auto _ : state) {
    const Time stall = ms.access(0, cursor, kStrip,
                                 mem::MemorySystem::AccessType::kWrite, now,
                                 /*reuse_per_line=*/3);
    benchmark::DoNotOptimize(stall);
    now += stall;
    cursor = (cursor + kStrip) % region;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kStrip));
}
BENCHMARK(BM_MemWalkWriteFill);

/// Hot walk: a buffer that fits the private cache, re-read in full each
/// iteration — the pure hit path (find + LRU refresh per line).
void BM_MemWalkHotReread(benchmark::State& state) {
  auto ms = make_mem();
  const u64 buf = 256ull << 10;  // half the 512 KiB L2
  ms.access(0, 0, buf, mem::MemorySystem::AccessType::kRead, Time::zero());
  Time now = Time::zero();
  for (auto _ : state) {
    const Time stall =
        ms.access(0, 0, buf, mem::MemorySystem::AccessType::kRead, now);
    benchmark::DoNotOptimize(stall);
    now += stall;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(buf));
}
BENCHMARK(BM_MemWalkHotReread);

/// Cache-to-cache ping-pong: two cores alternately read the same buffer, so
/// every line is a c2c transfer and an in-place ownership move.
void BM_MemWalkC2cPingPong(benchmark::State& state) {
  auto ms = make_mem();
  const u64 buf = 256ull << 10;
  ms.access(0, 0, buf, mem::MemorySystem::AccessType::kWrite, Time::zero());
  CoreId core = 1;
  Time now = Time::zero();
  for (auto _ : state) {
    const Time stall =
        ms.access(core, 0, buf, mem::MemorySystem::AccessType::kRead, now);
    benchmark::DoNotOptimize(stall);
    now += stall;
    core = core == 0 ? 1 : 0;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(buf));
}
BENCHMARK(BM_MemWalkC2cPingPong);

/// The irqbalance strip hand-off under the client's DRAM (5333 MB/s). The
/// NIC lands a strip in a receive buffer, core 0 (the interrupted core)
/// writes it, and core 1 (the consumer) reads it, every line a
/// cache-to-cache move, after copying the previous strip into a fresh
/// output buffer. The landing frees the ways core 1 read the last strip
/// into and the copy refills them, so core 1's L2 holds only its dirty
/// output, oldest first: each move's fill evicts a dirty line and books
/// its write-back at the move's instant.
void BM_MemWalkC2cStripHandoff(benchmark::State& state) {
  mem::MemorySystem ms(8, mem::CacheConfig{}, mem::MemoryTimings{}, kFreq,
                       Bandwidth::mb_per_sec(5333));
  const Address rx = 0;
  const u64 region = 64ull << 20;
  Address out = 0;
  Time now = Time::zero();
  for (auto _ : state) {
    now += ms.dma_write(rx, kStrip, now);
    now += ms.access(1, kStrip + out, kStrip,
                     mem::MemorySystem::AccessType::kWrite, now);
    now += ms.access(0, rx, kStrip, mem::MemorySystem::AccessType::kWrite,
                     now);
    now += ms.access(1, rx, kStrip, mem::MemorySystem::AccessType::kRead,
                     now);
    benchmark::DoNotOptimize(now);
    out = (out + kStrip) % region;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kStrip));
}
BENCHMARK(BM_MemWalkC2cStripHandoff);

/// The NIC RX landing under the client's DRAM (5333 MB/s): the NIC lands a
/// strip by DMA into the next receive buffer of a 64 MiB ring, and one core
/// reads it. The landing books the strip at its instant, so the read's
/// first miss books at the controller's horizon and the rest drain more
/// than they add: each fill run books almost all its misses in closed form.
void BM_MemWalkDmaStripRead(benchmark::State& state) {
  mem::MemorySystem ms(8, mem::CacheConfig{}, mem::MemoryTimings{}, kFreq,
                       Bandwidth::mb_per_sec(5333));
  const u64 region = 64ull << 20;
  Address strip = 0;
  Time now = Time::zero();
  for (auto _ : state) {
    now += ms.dma_write(strip, kStrip, now);
    now += ms.access(0, strip, kStrip, mem::MemorySystem::AccessType::kRead,
                     now);
    benchmark::DoNotOptimize(now);
    strip = (strip + kStrip) % region;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kStrip));
}
BENCHMARK(BM_MemWalkDmaStripRead);

/// Re-walk of lines this core holds away from both hint ways. Three 128 KiB
/// buffers give every set 4 lines of each, oldest first; alternately
/// re-walking the second and the third finds each line below its set's MRU
/// and above its LRU, so every line is an owned hit relinked at the way
/// the owner directory records for it.
void BM_MemWalkOwnedAwayFromHints(benchmark::State& state) {
  auto ms = make_mem();
  const u64 buf = 128ull << 10;
  for (u64 k = 0; k < 3; ++k) {
    ms.access(0, k * buf, buf, mem::MemorySystem::AccessType::kRead,
              Time::zero());
  }
  Time now = Time::zero();
  for (auto _ : state) {
    now += ms.access(0, buf, buf, mem::MemorySystem::AccessType::kRead, now);
    now += ms.access(0, 2 * buf, buf, mem::MemorySystem::AccessType::kRead,
                     now);
    benchmark::DoNotOptimize(now);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 2 *
                          static_cast<i64>(buf));
}
BENCHMARK(BM_MemWalkOwnedAwayFromHints);

/// DMA landings over resident lines: eight strips fill one core's L2, two
/// ways per set each. Each iteration lands a strip over the oldest one,
/// invalidating its 1024 lines in their middle ways, and the core reads it
/// back into the same ways (the NIC RX pattern on a busy client).
void BM_DmaOverResidentLines(benchmark::State& state) {
  auto ms = make_mem();
  constexpr u64 kStrips = 8;
  for (u64 k = 0; k < kStrips; ++k) {
    ms.access(0, k * kStrip, kStrip, mem::MemorySystem::AccessType::kRead,
              Time::zero());
  }
  Time now = Time::zero();
  u64 next = 0;
  for (auto _ : state) {
    const Address strip = next * kStrip;
    now += ms.dma_write(strip, kStrip, now);
    now += ms.access(0, strip, kStrip, mem::MemorySystem::AccessType::kRead,
                     now);
    benchmark::DoNotOptimize(now);
    next = (next + 1) % kStrips;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 2 *
                          static_cast<i64>(kStrip));
}
BENCHMARK(BM_DmaOverResidentLines);

/// Owner-directory churn: fill a strip's worth of owner entries, then DMA
/// over the same range to invalidate them (insert + erase per line, the
/// NIC RX landing pattern).
void BM_OwnerDirectoryChurn(benchmark::State& state) {
  auto ms = make_mem();
  Time now = Time::zero();
  for (auto _ : state) {
    now += ms.access(0, 0, kStrip, mem::MemorySystem::AccessType::kRead, now);
    now += ms.dma_write(0, kStrip, now);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 2 *
                          static_cast<i64>(kStrip));
}
BENCHMARK(BM_OwnerDirectoryChurn);

/// Schedule a burst of events with a deliberately chunky capture (larger
/// than std::function's inline buffer), then pop them all.
void BM_EventSchedulePop(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(1234);
  u64 sink[4] = {0, 1, 2, 3};
  constexpr int kBurst = 1024;
  for (auto _ : state) {
    const Time base = q.last_popped();
    for (int i = 0; i < kBurst; ++i) {
      q.schedule(base + Time::ns(static_cast<i64>(rng.below(10'000))),
                 [sink, &q]() mutable {
                   sink[0] += q.last_popped().picoseconds() != 0 ? 1u : 0u;
                   benchmark::DoNotOptimize(sink);
                 });
    }
    while (!q.empty()) q.pop().fn();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kBurst);
}
BENCHMARK(BM_EventSchedulePop);

/// Schedule a burst, cancel most of it, pop the rest — the CPU-preemption
/// pattern. The old CancelSet made each pop scan every outstanding cancel;
/// this is the structure the ≥3× event-path target is about.
void BM_EventScheduleCancelPop(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(987);
  constexpr int kBurst = 1024;
  std::vector<sim::EventHandle> handles;
  handles.reserve(kBurst);
  u64 fired = 0;
  for (auto _ : state) {
    handles.clear();
    const Time base = q.last_popped();
    for (int i = 0; i < kBurst; ++i) {
      handles.push_back(
          q.schedule(base + Time::ns(static_cast<i64>(rng.below(10'000))),
                     [&fired] { ++fired; }));
    }
    for (u64 i = 0; i < handles.size(); ++i) {
      if (i % 8 != 0) q.cancel(handles[i]);  // cancel 7/8ths
    }
    while (!q.empty()) q.pop().fn();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kBurst);
}
BENCHMARK(BM_EventScheduleCancelPop);

/// Read-ahead windows over a fleet of deep servers, as in the 48-server
/// straggler workload: 48 default 64 MiB caches (8 ways, ~15 MB of tag and
/// list state in all), each serving four streams of one-block requests at
/// random strides. Each call advances one random stream by a stride and
/// runs its 64-block window: a steady stream finds all but the window's
/// last block resident, so the row measures probes into random sets far
/// beyond the host's caches.
void BM_BufferCacheReadahead(benchmark::State& state) {
  constexpr int kServers = 48;
  constexpr int kStreams = 4;
  constexpr u64 kWindow = 64;
  pfs::BufferCacheConfig cfg;
  cfg.capacity_bytes = 64ull << 20;
  std::vector<pfs::BufferCache> caches(kServers, pfs::BufferCache(cfg));
  struct Stream {
    u64 last = 0;
    u64 stride = 0;
  };
  Rng rng(2610);
  std::vector<Stream> streams(kServers * kStreams);
  for (u64 i = 0; i < streams.size(); ++i) {
    streams[i].last = i << 32;  // disjoint files
    streams[i].stride = 1 + rng.below(96);
  }
  u64 forced = 0;
  u64 inserted = 0;
  for (auto _ : state) {
    const u64 i = rng.below(streams.size());
    Stream& st = streams[i];
    st.last += st.stride;
    inserted += caches[i / kStreams].readahead(st.last, st.stride, 1, kWindow,
                                               forced);
  }
  benchmark::DoNotOptimize(inserted);
  benchmark::DoNotOptimize(forced);
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_BufferCacheReadahead);

/// Build and drop one deep server's default cache (64 MiB, 8 ways), as
/// every experiment does once per deep server. Arg 1 also inserts one
/// dirty block, which allocates the dirty list; a read-only cache (arg 0)
/// never does.
void BM_BufferCacheBuild(benchmark::State& state) {
  pfs::BufferCacheConfig cfg;
  cfg.capacity_bytes = 64ull << 20;
  const bool dirty = state.range(0) != 0;
  for (auto _ : state) {
    pfs::BufferCache cache(cfg);
    if (dirty) cache.insert(1, /*dirty=*/true, /*prefetched=*/false);
    benchmark::DoNotOptimize(cache.dirty_blocks());
  }
}
BENCHMARK(BM_BufferCacheBuild)->ArgName("dirty")->Arg(0)->Arg(1);

/// End-to-end: one small full-stack experiment (8 servers, 128 KiB
/// transfers, 2 MiB per process) — the unit of work every figure sweep
/// point pays.
void BM_ExperimentSmall(benchmark::State& state) {
  for (auto _ : state) {
    const RunMetrics m = run_experiment(small_config());
    benchmark::DoNotOptimize(m.bandwidth_mbps);
  }
}
BENCHMARK(BM_ExperimentSmall)->Unit(benchmark::kMillisecond);

/// The same experiment on the sharded kernel (arg = sim.shards). Identical
/// metrics by contract (golden-pinned); the delta against BM_ExperimentSmall
/// is the round-synchronization overhead vs parallel-execution win — on a
/// multi-core host the crossover is where sharding starts paying.
void BM_ExperimentSmallSharded(benchmark::State& state) {
  ExperimentConfig cfg = small_config();
  cfg.sim.shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const RunMetrics m = run_experiment(cfg);
    benchmark::DoNotOptimize(m.bandwidth_mbps);
  }
}
BENCHMARK(BM_ExperimentSmallSharded)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saisim

int main(int argc, char** argv) {
  saisim::cli() = saisim::sweep::parse_cli(&argc, argv);
  saisim::small_config();  // resolve --config/--set/--dump-config up front
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
