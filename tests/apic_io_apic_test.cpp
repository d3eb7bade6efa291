#include "apic/io_apic.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace saisim::apic {
namespace {

constexpr Frequency kFreq = Frequency::ghz(1.0);

struct IoApicFixture : ::testing::Test {
  sim::Simulation s;
  cpu::CpuSystem cpus{s, 4, kFreq};

  InterruptMessage make_msg(CoreId hint, std::vector<CoreId>* handled_on,
                            Vector vec = 0) {
    InterruptMessage m;
    m.vector = vec;
    m.aff_core_id = hint;
    m.softirq_cost = [](CoreId, Time) { return Cycles{1000}; };
    m.on_handled = [handled_on](CoreId core, Time) {
      if (handled_on) handled_on->push_back(core);
    };
    return m;
  }
};

TEST_F(IoApicFixture, DeliversToHintedCoreUnderSourceAware) {
  IoApic apic(s, cpus, std::make_unique<SourceAwarePolicy>());
  std::vector<CoreId> handled;
  apic.raise(make_msg(2, &handled));
  s.run();
  ASSERT_EQ(handled.size(), 1u);
  EXPECT_EQ(handled[0], 2);
  EXPECT_EQ(apic.stats().raised, 1u);
  EXPECT_EQ(apic.stats().per_core[2], 1u);
}

TEST_F(IoApicFixture, DeliveryLatencyDelaysSoftirq) {
  IoApic apic(s, cpus, std::make_unique<SourceAwarePolicy>(),
              /*delivery_latency=*/Time::us(2));
  Time handled_at = Time::zero();
  InterruptMessage m;
  m.aff_core_id = 1;
  m.softirq_cost = [](CoreId, Time) { return Cycles{1000}; };
  m.on_handled = [&](CoreId, Time t) { handled_at = t; };
  apic.raise(std::move(m));
  s.run();
  // 2us delivery + 1us softirq at 1 GHz.
  EXPECT_EQ(handled_at, Time::us(3));
}

TEST_F(IoApicFixture, RedirectionTableRestrictsDelivery) {
  IoApic apic(s, cpus, std::make_unique<RoundRobinPolicy>());
  apic.set_redirection(/*vector=*/7, {1, 2});
  std::vector<CoreId> handled;
  for (int i = 0; i < 6; ++i) apic.raise(make_msg(kNoCore, &handled, 7));
  s.run();
  ASSERT_EQ(handled.size(), 6u);
  for (CoreId c : handled) EXPECT_TRUE(c == 1 || c == 2);
}

TEST_F(IoApicFixture, SourceAwareHintBeyondRedirectionFallsBack) {
  IoApic apic(s, cpus, std::make_unique<SourceAwarePolicy>());
  apic.set_redirection(0, {0, 1});
  std::vector<CoreId> handled;
  apic.raise(make_msg(3, &handled));  // hint outside the table
  s.run();
  ASSERT_EQ(handled.size(), 1u);
  EXPECT_TRUE(handled[0] == 0 || handled[0] == 1);
}

TEST_F(IoApicFixture, RoundRobinSpreadsEvenly) {
  IoApic apic(s, cpus, std::make_unique<RoundRobinPolicy>());
  std::vector<CoreId> handled;
  for (int i = 0; i < 40; ++i) apic.raise(make_msg(kNoCore, &handled));
  s.run();
  for (const u64 n : apic.stats().per_core) EXPECT_EQ(n, 10u);
}

TEST_F(IoApicFixture, SourceAwareConcentratesPeerInterrupts) {
  // All peer interrupts of one request (same hint) land on one core:
  // maximal imbalance, which is the point.
  IoApic apic(s, cpus, std::make_unique<SourceAwarePolicy>());
  for (int i = 0; i < 40; ++i) apic.raise(make_msg(2, nullptr));
  s.run();
  EXPECT_EQ(apic.stats().per_core[2], 40u);
}

TEST_F(IoApicFixture, SoftirqPricedOnHandlingCore) {
  IoApic apic(s, cpus, std::make_unique<SourceAwarePolicy>());
  CoreId priced_on = kNoCore;
  InterruptMessage m;
  m.aff_core_id = 3;
  m.softirq_cost = [&](CoreId handler, Time) {
    priced_on = handler;
    return Cycles{10};
  };
  apic.raise(std::move(m));
  s.run();
  EXPECT_EQ(priced_on, 3);
}

TEST_F(IoApicFixture, InvalidRedirectionEntryAborts) {
  IoApic apic(s, cpus, std::make_unique<RoundRobinPolicy>());
  EXPECT_DEATH(apic.set_redirection(0, {}), "");
  EXPECT_DEATH(apic.set_redirection(0, {9}), "");
}

}  // namespace
}  // namespace saisim::apic
