// SweepSpec grid semantics and the exact config fingerprint.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sweep/spec.hpp"
#include "util/reflect.hpp"

namespace saisim::sweep {
namespace {

SweepSpec two_axis_spec() {
  SweepSpec spec("test");
  spec.axis("servers", std::vector<int>{4, 8},
            [](int s) { return std::to_string(s); },
            [](ExperimentConfig& c, int s) { c.num_servers = s; })
      .axis("transfer", std::vector<u64>{128ull << 10, 512ull << 10, 1ull << 20},
            [](u64 t) { return std::to_string(t >> 10) + "K"; },
            [](ExperimentConfig& c, u64 t) { c.ior.transfer_size = t; });
  return spec;
}

TEST(SweepSpec, GridSizeIsProductOfAxisSizes) {
  const SweepSpec spec = two_axis_spec();
  EXPECT_EQ(spec.size(), 6u);
  EXPECT_EQ(spec.axis_sizes(), (std::vector<u64>{2, 3}));
  EXPECT_EQ(SweepSpec("empty").size(), 1u);
}

TEST(SweepSpec, PointsEnumerateRowMajorFirstAxisSlowest) {
  const SweepSpec spec = two_axis_spec();
  const std::vector<std::vector<std::string>> want = {
      {"4", "128K"}, {"4", "512K"}, {"4", "1024K"},
      {"8", "128K"}, {"8", "512K"}, {"8", "1024K"},
  };
  for (u64 flat = 0; flat < spec.size(); ++flat) {
    const SweepSpec::Point p = spec.point(flat);
    EXPECT_EQ(p.flat, flat);
    EXPECT_EQ(p.labels, want[flat]) << "flat " << flat;
    EXPECT_EQ(p.index, (std::vector<u64>{flat / 3, flat % 3}));
  }
}

TEST(SweepSpec, MutatorsApplyOnTopOfTheBaseConfig) {
  ExperimentConfig base;
  base.seed = 99;
  SweepSpec spec = two_axis_spec();
  SweepSpec with_base("test", base);
  with_base.axis("servers", std::vector<int>{4, 8},
                 [](int s) { return std::to_string(s); },
                 [](ExperimentConfig& c, int s) { c.num_servers = s; });
  const SweepSpec::Point p = with_base.point(1);
  EXPECT_EQ(p.config.num_servers, 8);
  EXPECT_EQ(p.config.seed, 99u);  // untouched base field survives
}

TEST(SweepSpec, PolicyAxisIsRecordedAndSetsThePolicy) {
  SweepSpec spec = two_axis_spec();
  spec.policies({PolicyKind::kIrqbalance, PolicyKind::kSourceAware});
  EXPECT_EQ(spec.policy_axis(), 2);
  EXPECT_EQ(spec.size(), 12u);
  const SweepSpec::Point first = spec.point(0);
  const SweepSpec::Point second = spec.point(1);
  EXPECT_EQ(first.config.policy, PolicyKind::kIrqbalance);
  EXPECT_EQ(second.config.policy, PolicyKind::kSourceAware);
  EXPECT_EQ(first.labels[2], std::string(policy_name(PolicyKind::kIrqbalance)));
}

TEST(SweepSpec, SeedAxisReplicatesEveryGridPoint) {
  SweepSpec spec("seeds");
  spec.axis("servers", std::vector<int>{4, 8},
            [](int s) { return std::to_string(s); },
            [](ExperimentConfig& c, int s) { c.num_servers = s; })
      .axis("seed", std::vector<u64>{1, 2, 3},
            [](u64 s) { return std::to_string(s); },
            [](ExperimentConfig& c, u64 s) { c.seed = s; });
  EXPECT_EQ(spec.size(), 6u);
  EXPECT_EQ(spec.point(0).config.seed, 1u);
  EXPECT_EQ(spec.point(2).config.seed, 3u);
  EXPECT_EQ(spec.point(5).config.num_servers, 8);
  EXPECT_EQ(spec.point(5).config.seed, 3u);
}

// ---- fingerprint ---------------------------------------------------------

TEST(Fingerprint, IdenticalConfigsFingerprintEqual) {
  ExperimentConfig a;
  ExperimentConfig b;
  EXPECT_EQ(util::reflect::fingerprint_of(a), util::reflect::fingerprint_of(b));
}

// Regression: the old bench cache keyed sweeps by `int(gbit * 10)`, which
// truncates 1.0 Gb/s and 1.04 Gb/s to the same bucket. The fingerprint
// must keep them distinct.
TEST(Fingerprint, NearbyNicBandwidthsDoNotCollide) {
  ExperimentConfig a;
  a.client.nic_bandwidth = Bandwidth::gbit(1.0);
  ExperimentConfig b;
  b.client.nic_bandwidth = Bandwidth::gbit(1.04);
  EXPECT_NE(util::reflect::fingerprint_of(a), util::reflect::fingerprint_of(b));
}

TEST(Fingerprint, DistinguishesRepresentativeFields) {
  const ExperimentConfig base;
  const std::string fp = util::reflect::fingerprint_of(base);

  ExperimentConfig seed = base;
  seed.seed = base.seed + 1;
  EXPECT_NE(util::reflect::fingerprint_of(seed), fp);

  ExperimentConfig policy = base;
  policy.policy = PolicyKind::kSourceAware;
  EXPECT_NE(util::reflect::fingerprint_of(policy), fp);

  ExperimentConfig transfer = base;
  transfer.ior.transfer_size = base.ior.transfer_size * 2;
  EXPECT_NE(util::reflect::fingerprint_of(transfer), fp);

  ExperimentConfig c2c = base;
  c2c.client.timings.c2c_transfer =
      Cycles{base.client.timings.c2c_transfer.count() + 1};
  EXPECT_NE(util::reflect::fingerprint_of(c2c), fp);

  ExperimentConfig mig = base;
  mig.ior.wake_migration_probability += 0.01;
  EXPECT_NE(util::reflect::fingerprint_of(mig), fp);
}

}  // namespace
}  // namespace saisim::sweep
