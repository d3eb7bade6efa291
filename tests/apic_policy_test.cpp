#include "apic/routing_policy.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace saisim::apic {
namespace {

constexpr Frequency kFreq = Frequency::ghz(1.0);

InterruptMessage msg_with_hint(CoreId hint, Vector vec = 0) {
  InterruptMessage m;
  m.vector = vec;
  m.aff_core_id = hint;
  m.softirq_cost = [](CoreId, Time) { return Cycles{100}; };
  return m;
}

struct PolicyFixture : ::testing::Test {
  sim::Simulation s;
  cpu::CpuSystem cpus{s, 4, kFreq};
  std::vector<CoreId> all{0, 1, 2, 3};
};

TEST_F(PolicyFixture, RoundRobinCycles) {
  RoundRobinPolicy p;
  std::vector<CoreId> got;
  for (int i = 0; i < 8; ++i)
    got.push_back(p.route(msg_with_hint(kNoCore), all, cpus, s.now()));
  EXPECT_EQ(got, (std::vector<CoreId>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST_F(PolicyFixture, RoundRobinRespectsAllowedSet) {
  RoundRobinPolicy p;
  const std::vector<CoreId> allowed{1, 3};
  for (int i = 0; i < 6; ++i) {
    const CoreId c = p.route(msg_with_hint(kNoCore), allowed, cpus, s.now());
    EXPECT_TRUE(c == 1 || c == 3);
  }
}

TEST_F(PolicyFixture, DedicatedDefaultsToHighestCore) {
  DedicatedPolicy p;  // the paper's AMD "everything on core 7" behaviour
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(p.route(msg_with_hint(2), all, cpus, s.now()), 3);
}

TEST_F(PolicyFixture, DedicatedHonoursConfiguredCore) {
  DedicatedPolicy p(1);
  EXPECT_EQ(p.route(msg_with_hint(kNoCore), all, cpus, s.now()), 1);
}

TEST_F(PolicyFixture, DedicatedFallsBackWhenCoreNotAllowed) {
  DedicatedPolicy p(0);
  const std::vector<CoreId> allowed{2, 3};
  EXPECT_EQ(p.route(msg_with_hint(kNoCore), allowed, cpus, s.now()), 3);
}

TEST_F(PolicyFixture, IrqbalancePerInterruptPicksLeastLoaded) {
  IrqbalancePolicy p(IrqbalancePolicy::Mode::kPerInterrupt);
  cpus.core(0).submit(cpu::WorkItem{
      .prio = cpu::Priority::kUser,
      .cost = [](Time) { return Cycles{1'000'000}; },
      .on_complete = nullptr,
      .tag = "busy"});
  const CoreId c = p.route(msg_with_hint(kNoCore), all, cpus, s.now());
  EXPECT_NE(c, 0);
}

TEST_F(PolicyFixture, IrqbalancePerInterruptSpreadsAcrossIdleCores) {
  // With all cores idle the tie-break is the first allowed core; but once a
  // softirq is queued there, the next interrupt must go elsewhere.
  IrqbalancePolicy p(IrqbalancePolicy::Mode::kPerInterrupt);
  const CoreId first = p.route(msg_with_hint(kNoCore), all, cpus, s.now());
  cpus.core(first).submit(cpu::WorkItem{
      .prio = cpu::Priority::kInterrupt,
      .cost = [](Time) { return Cycles{100'000}; },
      .on_complete = nullptr,
      .tag = "irq"});
  const CoreId second = p.route(msg_with_hint(kNoCore), all, cpus, s.now());
  EXPECT_NE(second, first);
}

TEST_F(PolicyFixture, IrqbalancePerEpochStickyWithinEpoch) {
  IrqbalancePolicy p(IrqbalancePolicy::Mode::kPerEpoch, Time::ms(10));
  const CoreId a = p.route(msg_with_hint(kNoCore, 5), all, cpus, s.now());
  const CoreId b = p.route(msg_with_hint(kNoCore, 5), all, cpus, s.now());
  EXPECT_EQ(a, b);
}

TEST_F(PolicyFixture, IrqbalancePerEpochSpreadsDistinctVectors) {
  IrqbalancePolicy p(IrqbalancePolicy::Mode::kPerEpoch, Time::ms(10));
  const CoreId a = p.route(msg_with_hint(kNoCore, 1), all, cpus, s.now());
  const CoreId b = p.route(msg_with_hint(kNoCore, 2), all, cpus, s.now());
  const CoreId c = p.route(msg_with_hint(kNoCore, 3), all, cpus, s.now());
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

TEST_F(PolicyFixture, SourceAwareFollowsHint) {
  SourceAwarePolicy p;
  for (CoreId hint : {0, 1, 2, 3}) {
    EXPECT_EQ(p.route(msg_with_hint(hint), all, cpus, s.now()), hint);
  }
  EXPECT_EQ(p.hinted_routes(), 4u);
}

TEST_F(PolicyFixture, SourceAwareFallsBackWithoutHint) {
  SourceAwarePolicy p;
  const CoreId a = p.route(msg_with_hint(kNoCore), all, cpus, s.now());
  const CoreId b = p.route(msg_with_hint(kNoCore), all, cpus, s.now());
  EXPECT_EQ(a, 0);  // round-robin fallback
  EXPECT_EQ(b, 1);
  EXPECT_EQ(p.hinted_routes(), 0u);
}

TEST_F(PolicyFixture, SourceAwareFallsBackWhenHintNotAllowed) {
  SourceAwarePolicy p;
  const std::vector<CoreId> allowed{0, 1};
  // Hint names core 3, excluded by the redirection table.
  const CoreId c = p.route(msg_with_hint(3), allowed, cpus, s.now());
  EXPECT_TRUE(c == 0 || c == 1);
  EXPECT_EQ(p.hinted_routes(), 0u);
}

TEST_F(PolicyFixture, SourceAwareCustomFallback) {
  SourceAwarePolicy p(std::make_unique<DedicatedPolicy>(2));
  EXPECT_EQ(p.route(msg_with_hint(kNoCore), all, cpus, s.now()), 2);
}

TEST_F(PolicyFixture, PolicyNames) {
  EXPECT_EQ(RoundRobinPolicy{}.name(), "round-robin");
  EXPECT_EQ(DedicatedPolicy{}.name(), "dedicated");
  EXPECT_EQ(IrqbalancePolicy{}.name(), "irqbalance");
  EXPECT_EQ(SourceAwarePolicy{}.name(), "source-aware");
}

}  // namespace
}  // namespace saisim::apic
