// System-level property sweeps: the paper's qualitative claims, asserted
// against the full simulator across parameter grids (TEST_P).
#include <gtest/gtest.h>

#include <tuple>

#include "core/experiment.hpp"
#include "sweep/sweep.hpp"

namespace saisim {
namespace {

ExperimentConfig base_config() {
  // The calibrated figure regime: four readers keep several consumer cores
  // busy, so load-based steering genuinely scatters interrupts. (With one
  // or two idle processes, a least-loaded policy can accidentally pick the
  // consumers' cores and look source-aware.)
  ExperimentConfig cfg;
  cfg.num_servers = 8;
  cfg.procs_per_client = 4;
  cfg.ior.transfer_size = 512ull << 10;
  cfg.ior.total_bytes = 4ull << 20;
  cfg.seed = 11;
  return cfg;
}

// ---- SAIs never loses on locality metrics across the grid --------------

using GridParam = std::tuple<int, u64>;  // servers, transfer
struct LocalitySweep : ::testing::TestWithParam<GridParam> {};

TEST_P(LocalitySweep, SaisReducesCacheToCacheTrafficEverywhere) {
  const auto [servers, transfer] = GetParam();
  ExperimentConfig cfg = base_config();
  cfg.num_servers = servers;
  cfg.ior.transfer_size = transfer;
  const Comparison c = sweep::compare_policies(cfg);
  EXPECT_LT(c.sais.c2c_transfers, c.baseline.c2c_transfers / 4)
      << servers << " servers, transfer " << transfer;
  // At transfers far beyond the 512 KiB private L2, SAIs trades c2c misses
  // for DRAM misses, so the *rate* advantage narrows (but must not invert
  // materially) while the unhalted-cycle advantage persists.
  EXPECT_LE(c.sais.l2_miss_rate, c.baseline.l2_miss_rate * 1.06);
  EXPECT_LT(c.sais.unhalted_cycles, c.baseline.unhalted_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LocalitySweep,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(128ull << 10, 512ull << 10,
                                         1ull << 20)));

// ---- every source-unaware policy migrates; only SAIs does not ----------

struct PolicySweep : ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicySweep, CompletesAndAccountsForAllBytes) {
  ExperimentConfig cfg = base_config();
  cfg.policy = GetParam();
  const RunMetrics m = run_experiment(cfg);
  EXPECT_EQ(m.total_bytes,
            cfg.ior.total_bytes * static_cast<u64>(cfg.procs_per_client));
  EXPECT_GT(m.bandwidth_mbps, 0.0);
  EXPECT_EQ(m.rx_drops, 0u);
}

TEST_P(PolicySweep, SourceUnawarePoliciesMigrateData) {
  ExperimentConfig cfg = base_config();
  cfg.policy = GetParam();
  const RunMetrics m = run_experiment(cfg);
  if (GetParam() == PolicyKind::kSourceAware ||
      GetParam() == PolicyKind::kHybrid) {
    EXPECT_EQ(m.c2c_transfers, 0u);
  } else {
    EXPECT_GT(m.c2c_transfers, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(PolicyKind::kRoundRobin, PolicyKind::kDedicated,
                      PolicyKind::kIrqbalance, PolicyKind::kIrqbalanceEpoch,
                      PolicyKind::kFlowHash, PolicyKind::kSourceAware,
                      PolicyKind::kHybrid),
    [](const auto& param_info) {
      std::string n{policy_name(param_info.param)};
      for (char& ch : n)
        if (ch == '-') ch = '_';
      return n;
    });

// ---- NIC-bound vs client-bound regimes ---------------------------------

TEST(RegimeProperties, OneGigabitIsNicBound) {
  ExperimentConfig cfg = base_config();
  cfg.client.nic_bandwidth = Bandwidth::gbit(1.0);
  cfg.client.nic.queues = 1;
  const Comparison c = sweep::compare_policies(cfg);
  // Bandwidth pinned near the NIC rate; speed-up small (paper: 6.05% max).
  EXPECT_LT(c.baseline.bandwidth_mbps, 126.0);
  EXPECT_LT(c.bandwidth_speedup_pct, 12.0);
  // CPU mostly idle (paper Fig. 8: <= 15.13%).
  EXPECT_LT(c.baseline.cpu_utilization, 0.25);
}

TEST(RegimeProperties, ThreeGigabitSpeedupExceedsOneGigabit) {
  ExperimentConfig cfg = base_config();
  cfg.num_servers = 16;
  cfg.ior.transfer_size = 512ull << 10;
  cfg.client.nic_bandwidth = Bandwidth::gbit(1.0);
  cfg.client.nic.queues = 1;
  const Comparison one_g = sweep::compare_policies(cfg);
  cfg.client.nic_bandwidth = Bandwidth::gbit(3.0);
  cfg.client.nic.queues = 3;
  const Comparison three_g = sweep::compare_policies(cfg);
  EXPECT_GT(three_g.bandwidth_speedup_pct, one_g.bandwidth_speedup_pct);
  EXPECT_GT(three_g.sais.bandwidth_mbps, one_g.sais.bandwidth_mbps * 1.5);
}

// ---- the write-path negative control ------------------------------------

TEST(RegimeProperties, WriteWorkloadShowsNoMeaningfulPolicyEffect) {
  ExperimentConfig cfg = base_config();
  cfg.ior.mode = workload::IorMode::kWrite;
  const Comparison c = sweep::compare_policies(cfg);
  EXPECT_EQ(c.baseline.total_bytes, c.sais.total_bytes);
  // The paper: "there is not a data locality issue associated with
  // interrupt scheduling in parallel I/O write operations."
  EXPECT_LT(std::abs(c.bandwidth_speedup_pct), 2.0);
}

TEST(RegimeProperties, ReadWorkloadShowsThePolicyEffectWritesLack) {
  ExperimentConfig read_cfg = base_config();
  read_cfg.num_servers = 16;
  const Comparison reads = sweep::compare_policies(read_cfg);
  ExperimentConfig write_cfg = read_cfg;
  write_cfg.ior.mode = workload::IorMode::kWrite;
  const Comparison writes = sweep::compare_policies(write_cfg);
  EXPECT_GT(reads.bandwidth_speedup_pct,
            writes.bandwidth_speedup_pct + 1.0);
}

// ---- hybrid policy (future work) ----------------------------------------

TEST(RegimeProperties, HybridMatchesSourceAwareWhenUncongested) {
  ExperimentConfig cfg = base_config();
  cfg.policy = PolicyKind::kSourceAware;
  const RunMetrics sa = run_experiment(cfg);
  cfg.policy = PolicyKind::kHybrid;
  const RunMetrics hy = run_experiment(cfg);
  // With calm cores the hybrid follows every hint, so results coincide.
  EXPECT_NEAR(hy.bandwidth_mbps, sa.bandwidth_mbps,
              sa.bandwidth_mbps * 0.02);
  EXPECT_EQ(hy.c2c_transfers, 0u);
  EXPECT_EQ(hy.hinted_interrupt_share_x1e4, sa.hinted_interrupt_share_x1e4);
}

// ---- failure injection ---------------------------------------------------

TEST(FailureInjection, TinyRxRingRecoversViaRetransmit) {
  ExperimentConfig cfg = base_config();
  cfg.client.nic.ring_capacity = 2;
  cfg.policy = PolicyKind::kSourceAware;
  const RunMetrics m = run_experiment(cfg);
  EXPECT_EQ(m.total_bytes,
            cfg.ior.total_bytes * static_cast<u64>(cfg.procs_per_client));
  // Whether drops occur depends on burst timing; if they did, retransmits
  // must have recovered every one of them.
  if (m.rx_drops > 0) {
    EXPECT_GE(m.retransmits, m.rx_drops);
  }
}

TEST(FailureInjection, DegradedServerSlowsButCompletes) {
  // A uniformly slower disk must reduce bandwidth, not break anything.
  ExperimentConfig cfg = base_config();
  cfg.policy = PolicyKind::kSourceAware;
  const RunMetrics fast = run_experiment(cfg);
  cfg.server.io.disk_seek = Time::ms(5);
  const RunMetrics slow = run_experiment(cfg);
  EXPECT_LT(slow.bandwidth_mbps, fast.bandwidth_mbps * 0.8);
  EXPECT_EQ(slow.total_bytes, fast.total_bytes);
}

}  // namespace
}  // namespace saisim
