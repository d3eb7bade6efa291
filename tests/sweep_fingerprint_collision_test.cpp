// Collision regression for the reflected config fingerprints.
//
// The cache key contract: two configs share a fingerprint iff every
// described field is bit-identical. We enumerate *every* described field
// of ExperimentConfig and MemsimConfig, perturb it minimally (ints by one,
// doubles by one ulp, bools flipped, enums rotated), and require all
// resulting fingerprints — plus the base — to be pairwise distinct.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/experiment.hpp"
#include "memsim/memsim.hpp"
#include "util/reflect.hpp"

namespace saisim {
namespace {

namespace r = util::reflect;

template <class Config>
void expect_all_perturbations_distinct(const Config& base) {
  std::set<std::string> seen{r::fingerprint_of(base)};
  u64 i = 0;
  for (;; ++i) {
    Config cfg = base;
    if (!r::perturb_field(cfg, i)) break;
    const std::string fp = r::fingerprint_of(cfg);
    const auto fields = r::list_fields(base);
    EXPECT_TRUE(seen.insert(fp).second)
        << "field '" << fields[i].path
        << "' perturbed but fingerprint collided";
  }
  EXPECT_EQ(i, r::count_fields<Config>())
      << "perturb_field stopped before covering every described field";
  EXPECT_EQ(seen.size(), r::count_fields<Config>() + 1);
}

TEST(FingerprintCollision, ExperimentConfigEveryField) {
  expect_all_perturbations_distinct(ExperimentConfig{});
}

TEST(FingerprintCollision, ExperimentConfigNonDefaultBase) {
  ExperimentConfig cfg;
  cfg.num_servers = 48;
  cfg.policy = PolicyKind::kSourceAware;
  cfg.client.nic.queues = 3;
  expect_all_perturbations_distinct(cfg);
}

TEST(FingerprintCollision, MemsimConfigEveryField) {
  expect_all_perturbations_distinct(memsim::MemsimConfig{});
}

// The historic failure mode the fingerprint encoding was designed against:
// near-equal values that a "%g"-style rendering would merge. 1 vs 1.04
// Gb/s differ by 5 MB/s; one ulp on a probability differs by nothing a
// fixed-precision printf would show.
TEST(FingerprintCollision, NearEqualValuesNeverMerge) {
  ExperimentConfig a;
  ExperimentConfig b = a;
  a.client.nic_bandwidth = Bandwidth::gbit(1.0);
  b.client.nic_bandwidth = Bandwidth::gbit(1.04);
  EXPECT_NE(r::fingerprint_of(a), r::fingerprint_of(b));

  b = a;
  b.ior.wake_migration_probability =
      std::nextafter(a.ior.wake_migration_probability, 1.0);
  EXPECT_NE(r::fingerprint_of(a), r::fingerprint_of(b));

  a.server.io.cache_hit_ratio = 0.7;
  b = a;
  b.server.io.cache_hit_ratio =
      std::nextafter(a.server.io.cache_hit_ratio, 0.0);
  EXPECT_NE(r::fingerprint_of(a), r::fingerprint_of(b));
}

// Strong types must be distinguished by value, not just presence: shifting
// a picosecond between two Time fields must not cancel out.
TEST(FingerprintCollision, PathPrefixesCannotAlias) {
  ExperimentConfig a;
  ExperimentConfig b = a;
  b.switch_latency = a.switch_latency + Time::ps(1);
  b.link_latency = a.link_latency - Time::ps(1);
  EXPECT_NE(r::fingerprint_of(a), r::fingerprint_of(b));
}

}  // namespace
}  // namespace saisim
