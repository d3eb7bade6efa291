#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cpu/cpu_system.hpp"

namespace saisim::cpu {
namespace {

constexpr Frequency kFreq = Frequency::ghz(1.0);  // 1 cycle == 1 ns

WorkItem burst(Priority prio, i64 cycles, std::function<void(Time)> done,
               const char* tag = "t") {
  WorkItem item{.prio = prio,
                .cost = [cycles](Time) { return Cycles{cycles}; },
                .on_complete = nullptr,
                .tag = tag};
  // WorkItem's SmallFunction must stay empty when no completion is wanted —
  // wrapping an empty std::function would make it look callable.
  if (done) item.on_complete = std::move(done);
  return item;
}

TEST(Core, RunsSubmittedWork) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  Time done_at = Time::zero();
  core.submit(burst(Priority::kUser, 1000, [&](Time t) { done_at = t; }));
  s.run();
  EXPECT_EQ(done_at, Time::us(1));
  EXPECT_EQ(core.accounting().busy_total, Time::us(1));
  EXPECT_EQ(core.accounting().items_completed, 1u);
  EXPECT_EQ(core.load(), 0u);
}

TEST(Core, FifoWithinPriority) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  std::vector<int> order;
  core.submit(burst(Priority::kUser, 100, [&](Time) { order.push_back(1); }));
  core.submit(burst(Priority::kUser, 100, [&](Time) { order.push_back(2); }));
  core.submit(burst(Priority::kUser, 100, [&](Time) { order.push_back(3); }));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Core, InterruptPreemptsUserWork) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  std::vector<std::pair<int, Time>> events;
  core.submit(burst(Priority::kUser, 10'000,
                    [&](Time t) { events.push_back({1, t}); }));
  // Arrives mid-burst; must finish before the user work.
  s.after(Time::us(2), [&] {
    core.submit(burst(Priority::kInterrupt, 1'000,
                      [&](Time t) { events.push_back({2, t}); }, "irq"));
  });
  s.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, 2);                // softirq completes first
  EXPECT_EQ(events[0].second, Time::us(3));     // 2us in + 1us softirq
  EXPECT_EQ(events[1].first, 1);
  EXPECT_EQ(events[1].second, Time::us(11));    // total work preserved
  EXPECT_EQ(core.accounting().preemptions, 1u);
}

TEST(Core, PreemptionPreservesTotalCycles) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  core.submit(burst(Priority::kUser, 50'000, nullptr));
  for (int i = 1; i <= 5; ++i) {
    s.after(Time::us(i * 7), [&] {
      core.submit(burst(Priority::kInterrupt, 500, nullptr));
    });
  }
  s.run();
  // 50us user + 5 * 0.5us softirq.
  EXPECT_EQ(core.accounting().busy_total, Time::us(52) + Time::ns(500));
  EXPECT_EQ(core.accounting().busy_by_prio[static_cast<int>(
                Priority::kInterrupt)],
            Time::us(2) + Time::ns(500));
}

TEST(Core, EqualPriorityDoesNotPreempt) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  std::vector<int> order;
  core.submit(burst(Priority::kInterrupt, 5'000,
                    [&](Time) { order.push_back(1); }));
  s.after(Time::us(1), [&] {
    core.submit(burst(Priority::kInterrupt, 100,
                      [&](Time) { order.push_back(2); }));
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(core.accounting().preemptions, 0u);
}

TEST(Core, UserTimesliceRotation) {
  sim::Simulation s;
  Core core(s, 0, kFreq, /*user_quantum=*/Time::us(10));
  std::vector<int> order;
  core.submit(burst(Priority::kUser, 25'000, [&](Time) { order.push_back(1); }));
  core.submit(burst(Priority::kUser, 5'000, [&](Time) { order.push_back(2); }));
  s.run();
  // Task 1 runs 10us, rotates; task 2 (5us) finishes; task 1 finishes.
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_GE(core.accounting().timeslice_rotations, 1u);
  EXPECT_EQ(core.accounting().busy_total, Time::us(30));
}

TEST(Core, CostEvaluatedOnceAtStart) {
  sim::Simulation s;
  Core core(s, 0, kFreq, Time::us(10));
  int evaluations = 0;
  core.submit(WorkItem{.prio = Priority::kUser,
                       .cost =
                           [&](Time) {
                             ++evaluations;
                             return Cycles{30'000};
                           },
                       .on_complete = nullptr,
                       .tag = "t"});
  s.run();
  EXPECT_EQ(evaluations, 1);  // rotations must not re-price the work
}

TEST(Core, ZeroCostWorkCompletesImmediately) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  Time done_at = Time::max();
  s.after(Time::us(5), [&] {
    core.submit(burst(Priority::kUser, 0, [&](Time t) { done_at = t; }));
  });
  s.run();
  EXPECT_EQ(done_at, Time::us(5));
}

TEST(Core, CompletionCallbackCanSubmitMoreWork) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  int chain = 0;
  std::function<void(Time)> next = [&](Time) {
    if (++chain < 4) core.submit(burst(Priority::kUser, 1000, next));
  };
  core.submit(burst(Priority::kUser, 1000, next));
  s.run();
  EXPECT_EQ(chain, 4);
  EXPECT_EQ(core.accounting().busy_total, Time::us(4));
}

TEST(Core, IdleCoreAccruesNoUnhaltedTime) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  s.after(Time::ms(10), [&] { core.submit(burst(Priority::kUser, 1000, nullptr)); });
  s.run();
  // 10 ms wall, 1 us busy: CPU_CLK_UNHALTED counts only the busy part.
  EXPECT_EQ(core.accounting().busy_total, Time::us(1));
  EXPECT_EQ(core.accounting().unhalted(kFreq).count(), 1000);
}

TEST(Core, LoadCountsQueuedAndRunning) {
  sim::Simulation s;
  Core core(s, 0, kFreq);
  EXPECT_EQ(core.load(), 0u);
  core.submit(burst(Priority::kUser, 1'000'000, nullptr));
  core.submit(burst(Priority::kUser, 1'000'000, nullptr));
  EXPECT_EQ(core.load(), 2u);
  EXPECT_EQ(core.backlog(), 1u);
  s.run();
  EXPECT_EQ(core.load(), 0u);
}

TEST(CpuSystem, AggregateAccounting) {
  sim::Simulation s;
  CpuSystem cpus(s, 4, kFreq);
  cpus.core(0).submit(burst(Priority::kUser, 10'000, nullptr));
  cpus.core(2).submit(burst(Priority::kInterrupt, 5'000, nullptr));
  s.run();
  EXPECT_EQ(cpus.total_busy(), Time::us(15));
  EXPECT_EQ(cpus.total_busy_by_prio(Priority::kInterrupt), Time::us(5));
  EXPECT_EQ(cpus.total_unhalted().count(), 15'000);
  // 15 us busy over 4 cores * 15 us elapsed = 25%, as run_experiment
  // reports cpu_utilization.
  EXPECT_DOUBLE_EQ(cpus.total_busy().ratio(Time::us(15) * cpus.num_cores()),
                   0.25);
}

TEST(CpuSystem, LeastLoadedFindsIdleCore) {
  sim::Simulation s;
  CpuSystem cpus(s, 3, kFreq);
  cpus.core(0).submit(burst(Priority::kUser, 1'000'000, nullptr));
  cpus.core(1).submit(burst(Priority::kUser, 1'000'000, nullptr));
  EXPECT_EQ(cpus.least_loaded(s.now()), 2);
}

}  // namespace
}  // namespace saisim::cpu
