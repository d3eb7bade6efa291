// IOR process and background-load tests over a full client/server stack.
#include <gtest/gtest.h>

#include "support/test_cluster.hpp"

namespace saisim::workload {
namespace {

struct WorkloadFixture : ::testing::Test {
  Cluster cluster{test::cluster_config()};
  sim::Simulation& s = cluster.sim();
  cpu::CpuSystem& cpus = cluster.client(0).cpus();
  mem::MemorySystem& memory = cluster.client(0).memory();
  mem::AddressSpace& space = cluster.client(0).address_space();
  pfs::PfsClient* client = &cluster.client(0).pfs();
  const sais::SaisClient* sais_stack = cluster.client(0).sais();

  IorConfig small_ior() {
    IorConfig cfg;
    cfg.transfer_size = 256ull << 10;
    cfg.total_bytes = 1ull << 20;
    return cfg;
  }
};

TEST_F(WorkloadFixture, ProcessReadsConfiguredVolume) {
  IorProcess proc(s, cpus, memory, *client, 1, 0, true, small_ior());
  std::optional<IorProcessStats> stats;
  proc.start([&](const IorProcessStats& st) { stats = st; });
  s.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->bytes_read, 1ull << 20);
  EXPECT_EQ(stats->reads_completed, 4u);
  EXPECT_TRUE(proc.finished());
  EXPECT_GT(stats->bandwidth_mbps(), 0.0);
}

TEST_F(WorkloadFixture, HintsSentOnlyWhenSaisAware) {
  IorProcess hinted(s, cpus, memory, *client, 1, 2, true, small_ior());
  hinted.start(nullptr);
  s.run();
  EXPECT_GT(sais_stack->messager().stamped(), 0u);
  EXPECT_EQ(sais_stack->messager().skipped(), 0u);

  const u64 stamped_before = sais_stack->messager().stamped();
  IorProcess plain(s, cpus, memory, *client, 2, 3, false, small_ior());
  plain.start(nullptr);
  s.run();
  EXPECT_EQ(sais_stack->messager().stamped(), stamped_before);
  EXPECT_GT(sais_stack->messager().skipped(), 0u);
}

TEST_F(WorkloadFixture, SaisProcessConsumesOnHomeCoreWithHits) {
  IorProcess proc(s, cpus, memory, *client, 1, 2, true, small_ior());
  proc.start(nullptr);
  s.run();
  // All softirqs and the consume ran on core 2: no cache-to-cache traffic
  // and core 2 did essentially all the work.
  EXPECT_EQ(memory.c2c_transfers(), 0u);
  EXPECT_GT(memory.core_stats(2).hits, 0u);
  // Core 2 does essentially everything; core 0 sees only the (unhinted)
  // metadata-open reply softirq.
  EXPECT_GT(cpus.core(2).accounting().busy_total,
            cpus.core(0).accounting().busy_total * 100);
}

TEST_F(WorkloadFixture, UnhintedProcessSuffersCacheToCacheTraffic) {
  IorProcess proc(s, cpus, memory, *client, 1, 2, false, small_ior());
  proc.start(nullptr);
  s.run();
  // Interrupts round-robin across cores while the consumer sits on core 2.
  EXPECT_GT(memory.c2c_transfers(), 0u);
}

TEST_F(WorkloadFixture, ComputeCostScalesWithConfiguredCycles) {
  IorConfig cheap = small_ior();
  cheap.compute_centicycles_per_byte = 0;
  IorProcess p1(s, cpus, memory, *client, 1, 0, true, cheap);
  std::optional<IorProcessStats> st1;
  p1.start([&](const IorProcessStats& st) { st1 = st; });
  s.run();

  IorConfig expensive = small_ior();
  expensive.compute_centicycles_per_byte = 10'000;  // 100 cycles/byte
  expensive.file_offset_start = 1ull << 30;
  IorProcess p2(s, cpus, memory, *client, 2, 1, true, expensive);
  std::optional<IorProcessStats> st2;
  const Time t2_start = s.now();
  p2.start([&](const IorProcessStats& st) { st2 = st; });
  s.run();

  ASSERT_TRUE(st1.has_value());
  ASSERT_TRUE(st2.has_value());
  const Time d1 = st1->finished_at - st1->started_at;
  const Time d2 = st2->finished_at - t2_start;
  // 100 cyc/B over 1 MiB at 2 GHz adds ~52 ms of pure compute.
  EXPECT_GT(d2, d1 + Time::ms(40));
}

TEST_F(WorkloadFixture, IncrementalCopyModeOverlapsMigration) {
  IorConfig cfg = small_ior();
  cfg.incremental_copy = true;
  IorProcess proc(s, cpus, memory, *client, 1, 1, false, cfg);
  std::optional<IorProcessStats> stats;
  proc.start([&](const IorProcessStats& st) { stats = st; });
  s.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->bytes_read, 1ull << 20);
}

TEST_F(WorkloadFixture, WriteModeMovesConfiguredVolume) {
  IorConfig cfg = small_ior();
  cfg.mode = IorMode::kWrite;
  IorProcess proc(s, cpus, memory, *client, 1, 0, true, cfg);
  std::optional<IorProcessStats> stats;
  proc.start([&](const IorProcessStats& st) { stats = st; });
  s.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->bytes_read, 1ull << 20);
  EXPECT_EQ(client->stats().writes_completed, 4u);
  u64 written = 0;
  for (int i = 0; i < 4; ++i) {
    written += cluster.server(i).stats().bytes_written;
  }
  EXPECT_EQ(written, 1ull << 20);
}

TEST_F(WorkloadFixture, RandomPatternDrawsAlignedOffsetsInRegion) {
  IorConfig cfg = small_ior();
  cfg.pattern = AccessPattern::kRandom;
  cfg.file_offset_start = 1ull << 30;
  cfg.file_region_bytes = 16ull << 20;
  IorProcess proc(s, cpus, memory, *client, 1, 0, true, cfg);
  std::vector<u64> offsets;
  // Observe the offsets through the strip consumer's file offsets.
  proc.start(nullptr);
  s.run();
  EXPECT_TRUE(proc.finished());
  EXPECT_EQ(proc.stats().bytes_read, 1ull << 20);
}

TEST_F(WorkloadFixture, WakeMigrationMovesTheConsumer) {
  IorConfig cfg = small_ior();
  cfg.wake_migration_probability = 1.0;  // migrate on every wake
  // Home core 3: the least-loaded scan prefers core 0 on an idle machine,
  // so the wake-up migration actually moves the process.
  IorProcess proc(s, cpus, memory, *client, 1, 3, true, cfg);
  proc.start(nullptr);
  s.run();
  EXPECT_TRUE(proc.finished());
  EXPECT_GT(proc.stats().migrations, 0u);
  // Stale hints: strips were steered to the pre-migration core, so even
  // the hinted workload now migrates data between caches.
  EXPECT_GT(memory.c2c_transfers(), 0u);
}

TEST_F(WorkloadFixture, NoMigrationByDefault) {
  IorProcess proc(s, cpus, memory, *client, 1, 0, true, small_ior());
  proc.start(nullptr);
  s.run();
  EXPECT_EQ(proc.stats().migrations, 0u);
}

TEST_F(WorkloadFixture, BackgroundLoadTicksOnEveryCore) {
  BackgroundConfig bg;
  bg.period = Time::ms(1);
  BackgroundLoad background(s, cpus, memory, space, bg);
  background.start(Time::ms(20));
  s.run();
  EXPECT_GE(background.ticks(), 4u * 19u);
  for (int c = 0; c < cpus.num_cores(); ++c) {
    EXPECT_GT(cpus.core(c).accounting().busy_total, Time::zero()) << c;
  }
}

TEST_F(WorkloadFixture, BackgroundHotSetHitsAfterWarmup) {
  BackgroundLoad background(s, cpus, memory, space, BackgroundConfig{});
  background.start(Time::ms(10));
  s.run();
  const auto total = memory.total_stats();
  // First tick per core misses; every later tick hits.
  EXPECT_GT(total.hits, total.misses() * 3);
}

}  // namespace
}  // namespace saisim::workload
