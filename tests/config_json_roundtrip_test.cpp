// Replay guarantee: `--dump-config` output is a lossless snapshot.
//
//   1. dump -> load -> dump is byte-identical (flat-key JSON, shortest
//      round-trip doubles), and
//   2. a loaded config carries the exact fingerprint of the original, so
//      re-running it reproduces the golden-test experiments bit-for-bit.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "memsim/memsim.hpp"
#include "util/reflect.hpp"
#include "util/reflect_json.hpp"

namespace saisim {
namespace {

namespace r = util::reflect;

template <class Config>
void expect_roundtrip_identity(const Config& cfg) {
  const std::string dump1 = r::config_to_json(cfg);
  Config loaded;  // defaults — every key in the dump overwrites them
  const r::LoadResult res = r::config_from_json(loaded, dump1);
  ASSERT_TRUE(res.errors.empty()) << res.errors.front();
  EXPECT_EQ(r::config_to_json(loaded), dump1);
  EXPECT_EQ(r::fingerprint_of(loaded), r::fingerprint_of(cfg));
}

TEST(ConfigJsonRoundtrip, ExperimentDefaults) {
  expect_roundtrip_identity(ExperimentConfig{});
}

TEST(ConfigJsonRoundtrip, MemsimDefaults) {
  expect_roundtrip_identity(memsim::MemsimConfig{});
}

TEST(ConfigJsonRoundtrip, SurvivesAwkwardValues) {
  ExperimentConfig cfg;
  cfg.policy = PolicyKind::kSourceAware;
  cfg.ior.wake_migration_probability = 0.1;  // classic non-representable
  cfg.server.io.cache_hit_ratio = 1.0 / 3.0;
  cfg.client.nic_bandwidth = Bandwidth::gbit(1.04);
  cfg.switch_latency = Time::ps(1);
  expect_roundtrip_identity(cfg);
}

// --- the three golden experiments (mirroring golden_metrics_test.cpp) ---

ExperimentConfig small_experiment(double gbit) {
  ExperimentConfig cfg;
  cfg.num_servers = 8;
  cfg.client.nic_bandwidth = Bandwidth::gbit(gbit);
  cfg.client.nic.queues = gbit > 1.5 ? 3 : 1;
  cfg.ior.transfer_size = 128ull << 10;
  cfg.ior.total_bytes = 2ull << 20;
  cfg.policy = gbit > 1.5 ? PolicyKind::kSourceAware : PolicyKind::kIrqbalance;
  return cfg;
}

memsim::MemsimConfig golden_memsim_point() {
  memsim::MemsimConfig cfg;
  cfg.num_pairs = 2;
  cfg.source_aware = false;
  cfg.bytes_per_pair = 8ull << 20;
  cfg.warmup = Time::ms(2);
  cfg.duration = Time::ms(12);
  return cfg;
}

void expect_same_metrics(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(std::bit_cast<u64>(a.bandwidth_mbps),
            std::bit_cast<u64>(b.bandwidth_mbps));
  EXPECT_EQ(std::bit_cast<u64>(a.l2_miss_rate),
            std::bit_cast<u64>(b.l2_miss_rate));
  EXPECT_EQ(std::bit_cast<u64>(a.unhalted_cycles),
            std::bit_cast<u64>(b.unhalted_cycles));
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.interrupts, b.interrupts);
  EXPECT_EQ(a.c2c_transfers, b.c2c_transfers);
  EXPECT_EQ(a.hinted_interrupt_share_x1e4, b.hinted_interrupt_share_x1e4);
}

class ConfigJsonReplay : public testing::TestWithParam<double> {};

TEST_P(ConfigJsonReplay, LoadedExperimentReproducesGoldenRun) {
  const ExperimentConfig original = small_experiment(GetParam());
  ExperimentConfig replayed;
  const r::LoadResult res =
      r::config_from_json(replayed, r::config_to_json(original));
  ASSERT_TRUE(res.errors.empty()) << res.errors.front();
  expect_same_metrics(run_experiment(original), run_experiment(replayed));
}

INSTANTIATE_TEST_SUITE_P(Goldens, ConfigJsonReplay,
                         testing::Values(1.0, 3.0));

TEST(ConfigJsonRoundtrip, LoadedMemsimReproducesGoldenRun) {
  const memsim::MemsimConfig original = golden_memsim_point();
  expect_roundtrip_identity(original);
  memsim::MemsimConfig replayed;
  const r::LoadResult res =
      r::config_from_json(replayed, r::config_to_json(original));
  ASSERT_TRUE(res.errors.empty()) << res.errors.front();
  const memsim::MemsimResult a = memsim::run_memsim(original);
  const memsim::MemsimResult b = memsim::run_memsim(replayed);
  EXPECT_EQ(std::bit_cast<u64>(a.bandwidth_mbps),
            std::bit_cast<u64>(b.bandwidth_mbps));
  EXPECT_EQ(std::bit_cast<u64>(a.l2_miss_rate),
            std::bit_cast<u64>(b.l2_miss_rate));
  EXPECT_EQ(a.c2c_transfers, b.c2c_transfers);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.elapsed, b.elapsed);
}

// The dump must parse as a single flat object — nested keys are dotted,
// values are either bare numbers/bools or quoted enum names.
TEST(ConfigJsonRoundtrip, DumpIsFlatKeyed) {
  const std::string dump = r::config_to_json(ExperimentConfig{});
  std::vector<r::JsonEntry> entries;
  const std::string err = r::parse_flat_json(dump, &entries);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(entries.size(), r::count_fields<ExperimentConfig>());
  bool saw_dotted = false;
  bool saw_enum = false;
  for (const r::JsonEntry& e : entries) {
    saw_dotted = saw_dotted || e.key.find('.') != std::string::npos;
    saw_enum = saw_enum || (e.quoted && e.key == "policy");
  }
  EXPECT_TRUE(saw_dotted);
  EXPECT_TRUE(saw_enum);
}

}  // namespace
}  // namespace saisim
