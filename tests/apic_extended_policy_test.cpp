#include "apic/extended_policies.hpp"

#include <gtest/gtest.h>

namespace saisim::apic {
namespace {

constexpr Frequency kFreq = Frequency::ghz(1.0);

InterruptMessage msg(CoreId hint, RequestId req = 1, Vector vec = 0) {
  InterruptMessage m;
  m.vector = vec;
  m.request = req;
  m.aff_core_id = hint;
  m.softirq_cost = [](CoreId, Time) { return Cycles{100}; };
  return m;
}

struct ExtendedPolicyFixture : ::testing::Test {
  sim::Simulation s;
  cpu::CpuSystem cpus{s, 4, kFreq};
  std::vector<CoreId> all{0, 1, 2, 3};

  void load_core(CoreId c, int items) {
    for (int i = 0; i < items; ++i) {
      cpus.core(c).submit(cpu::WorkItem{
          .prio = cpu::Priority::kUser,
          .cost = [](Time) { return Cycles{1'000'000}; },
          .on_complete = nullptr,
          .tag = "load"});
    }
  }
};

TEST_F(ExtendedPolicyFixture, FlowHashIsStablePerFlow) {
  FlowHashPolicy p;
  const CoreId first = p.route(msg(kNoCore, 42), all, cpus, s.now());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.route(msg(kNoCore, 42), all, cpus, s.now()), first);
  }
}

TEST_F(ExtendedPolicyFixture, FlowHashSpreadsDistinctFlows) {
  FlowHashPolicy p;
  std::vector<int> per_core(4, 0);
  for (RequestId r = 0; r < 400; ++r) {
    ++per_core[static_cast<u64>(p.route(msg(kNoCore, r), all, cpus, s.now()))];
  }
  for (int n : per_core) {
    EXPECT_GT(n, 50);  // roughly uniform
    EXPECT_LT(n, 200);
  }
}

TEST_F(ExtendedPolicyFixture, FlowHashIgnoresHint) {
  FlowHashPolicy p;
  const CoreId with_hint = p.route(msg(2, 7), all, cpus, s.now());
  const CoreId without = p.route(msg(kNoCore, 7), all, cpus, s.now());
  EXPECT_EQ(with_hint, without);
}

TEST_F(ExtendedPolicyFixture, HybridFollowsHintWhenCoreIsCalm) {
  HybridPolicy p(/*overload_backlog=*/4);
  EXPECT_EQ(p.route(msg(3), all, cpus, s.now()), 3);
  EXPECT_EQ(p.hinted_routes(), 1u);
}

TEST_F(ExtendedPolicyFixture, HybridFallsBackWhenHintedCoreCongested) {
  HybridPolicy p(/*overload_backlog=*/2);
  load_core(3, 8);
  const CoreId c = p.route(msg(3), all, cpus, s.now());
  EXPECT_NE(c, 3);
  EXPECT_EQ(p.hinted_routes(), 0u);
}

TEST_F(ExtendedPolicyFixture, HybridFallsBackWithoutHint) {
  HybridPolicy p;
  const CoreId c = p.route(msg(kNoCore), all, cpus, s.now());
  EXPECT_GE(c, 0);
  EXPECT_LT(c, 4);
  EXPECT_EQ(p.hinted_routes(), 0u);
}

TEST_F(ExtendedPolicyFixture, HybridRespectsRedirectionTable) {
  HybridPolicy p;
  const std::vector<CoreId> allowed{0, 1};
  const CoreId c = p.route(msg(3), allowed, cpus, s.now());
  EXPECT_TRUE(c == 0 || c == 1);
}

TEST_F(ExtendedPolicyFixture, HybridRecoversAfterCongestionDrains) {
  HybridPolicy p(/*overload_backlog=*/2);
  load_core(3, 8);
  EXPECT_NE(p.route(msg(3), all, cpus, s.now()), 3);
  s.run();  // drain the load
  EXPECT_EQ(p.route(msg(3), all, cpus, s.now()), 3);
}

TEST_F(ExtendedPolicyFixture, Names) {
  EXPECT_EQ(FlowHashPolicy{}.name(), "flow-hash");
  EXPECT_EQ(HybridPolicy{}.name(), "hybrid");
}

}  // namespace
}  // namespace saisim::apic
