#include "trace/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/experiment.hpp"
#include "trace/tracer.hpp"

namespace saisim::trace {
namespace {

Event ev(EventType type, i64 ns, RequestId req, i64 a = 0, i64 b = 0) {
  Event e;
  e.when = Time::ns(ns);
  e.type = type;
  e.request = req;
  e.a = a;
  e.b = b;
  return e;
}

/// The invariant the exporter and phase tables rely on: the six phases
/// tile [issue, end] exactly.
void expect_phases_tile(const RequestSpan& s) {
  Time sum = Time::zero();
  for (int p = 0; p < kNumPhases; ++p) {
    EXPECT_GE(s.phase[p], Time::zero()) << "negative phase " << kPhaseNames[p];
    sum += s.phase[p];
  }
  EXPECT_EQ(sum, s.end - s.issue);
  EXPECT_EQ(sum, s.total());
}

TEST(BuildSpans, FullLifecycleSplitsIntoPhases) {
  std::vector<Event> events;
  events.push_back(ev(EventType::kPfsIssue, 0, 1, /*bytes=*/131072, 2));
  events.push_back(ev(EventType::kServerSend, 100, 1));
  events.push_back(ev(EventType::kNicRx, 250, 1));
  events.push_back(ev(EventType::kSoftirqBegin, 260, 1));
  events.push_back(ev(EventType::kSoftirqEnd, 300, 1));
  events.push_back(ev(EventType::kConsumeMigration, 350, 1,
                      /*migration_ps=*/Time::ns(40).picoseconds()));
  events.push_back(ev(EventType::kConsumeEnd, 500, 1));
  const auto spans = build_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  const RequestSpan& s = spans[0];
  EXPECT_EQ(s.request, 1);
  EXPECT_EQ(s.bytes, 131072);
  EXPECT_EQ(s.strips, 2);
  EXPECT_EQ(s.phase[static_cast<u8>(Phase::kServer)], Time::ns(100));
  EXPECT_EQ(s.phase[static_cast<u8>(Phase::kWire)], Time::ns(150));
  EXPECT_EQ(s.phase[static_cast<u8>(Phase::kIrqQueue)], Time::ns(10));
  EXPECT_EQ(s.phase[static_cast<u8>(Phase::kSoftirq)], Time::ns(40));
  EXPECT_EQ(s.phase[static_cast<u8>(Phase::kMigration)], Time::ns(40));
  EXPECT_EQ(s.phase[static_cast<u8>(Phase::kConsume)], Time::ns(160));
  expect_phases_tile(s);
}

TEST(BuildSpans, LastStripDefinesEachMilestone) {
  // Two strips: milestones take the max over per-strip events.
  std::vector<Event> events;
  events.push_back(ev(EventType::kPfsIssue, 0, 3, 65536, 2));
  events.push_back(ev(EventType::kServerSend, 50, 3));
  events.push_back(ev(EventType::kServerSend, 90, 3));
  events.push_back(ev(EventType::kNicRx, 120, 3));
  events.push_back(ev(EventType::kNicRx, 200, 3));
  events.push_back(ev(EventType::kConsumeEnd, 400, 3));
  const auto spans = build_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase[static_cast<u8>(Phase::kServer)], Time::ns(90));
  EXPECT_EQ(spans[0].phase[static_cast<u8>(Phase::kWire)], Time::ns(110));
  expect_phases_tile(spans[0]);
}

TEST(BuildSpans, MissingMilestonesCollapseToZero) {
  // No softirq events at all (e.g. the cpu subsystem was filtered out).
  std::vector<Event> events;
  events.push_back(ev(EventType::kPfsIssue, 0, 2, 4096, 1));
  events.push_back(ev(EventType::kConsumeEnd, 1000, 2));
  const auto spans = build_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase[static_cast<u8>(Phase::kConsume)], Time::us(1));
  expect_phases_tile(spans[0]);
}

TEST(BuildSpans, OutOfOrderMilestonesNeverGoNegative) {
  // A retransmit's softirq lands after the request already completed —
  // clamping absorbs it instead of emitting a negative phase.
  std::vector<Event> events;
  events.push_back(ev(EventType::kPfsIssue, 0, 9, 4096, 1));
  events.push_back(ev(EventType::kSoftirqBegin, 100, 9));
  events.push_back(ev(EventType::kSoftirqEnd, 900, 9));
  events.push_back(ev(EventType::kConsumeEnd, 500, 9));
  events.push_back(ev(EventType::kSoftirqBegin, 1200, 9));
  const auto spans = build_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  expect_phases_tile(spans[0]);
}

TEST(BuildSpans, MigrationIsClampedToTheConsumeWindow) {
  std::vector<Event> events;
  events.push_back(ev(EventType::kPfsIssue, 0, 4, 4096, 1));
  events.push_back(ev(EventType::kSoftirqEnd, 400, 4));
  events.push_back(ev(EventType::kConsumeMigration, 450, 4,
                      Time::ns(10'000).picoseconds()));
  events.push_back(ev(EventType::kConsumeEnd, 500, 4));
  const auto spans = build_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase[static_cast<u8>(Phase::kMigration)],
            Time::ns(100));
  EXPECT_EQ(spans[0].phase[static_cast<u8>(Phase::kConsume)], Time::zero());
  expect_phases_tile(spans[0]);
}

TEST(BuildSpans, UnfinishedRequestsProduceNoSpan) {
  std::vector<Event> events;
  events.push_back(ev(EventType::kPfsIssue, 0, 5, 4096, 1));
  events.push_back(ev(EventType::kNicRx, 100, 5));
  events.push_back(ev(EventType::kConsumeEnd, 200, 6));  // never issued
  EXPECT_TRUE(build_spans(events).empty());
}

TEST(PhaseTotals, SharesSumToOne) {
  std::vector<Event> events;
  events.push_back(ev(EventType::kPfsIssue, 0, 1, 4096, 1));
  events.push_back(ev(EventType::kServerSend, 400, 1));
  events.push_back(ev(EventType::kConsumeEnd, 1000, 1));
  const PhaseTotals t = phase_totals(build_spans(events));
  EXPECT_EQ(t.spans, 1);
  EXPECT_EQ(t.total_ps, Time::us(1).picoseconds());
  double shares = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    shares += t.share(static_cast<Phase>(p));
  }
  EXPECT_DOUBLE_EQ(shares, 1.0);
  const std::string csv = phase_table(t).to_csv();  // header + one per phase
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), kNumPhases + 1);
}

#if defined(SAISIM_TRACING_ENABLED)

/// End-to-end accounting over a real (small) experiment: every completed
/// read yields a span whose phases tile its latency exactly, and SAIs
/// shrinks the migration share relative to the baseline — the paper's
/// mechanism, visible in the lifecycle decomposition.
struct FullStack : ::testing::Test {
  static ExperimentConfig config(PolicyKind policy) {
    ExperimentConfig cfg;
    cfg.num_servers = 8;
    cfg.client.nic_bandwidth = Bandwidth::gbit(1.0);
    cfg.client.nic.queues = 1;
    cfg.ior.transfer_size = 128ull << 10;
    cfg.ior.total_bytes = 512ull << 10;
    cfg.policy = policy;
    return cfg;
  }

  static PhaseTotals run(PolicyKind policy, u64 expected_spans) {
    Tracer tracer;
    TraceScope scope(&tracer);
    const ExperimentConfig cfg = config(policy);
    (void)run_experiment(cfg);
    const std::vector<Event> events = tracer.take();
    const std::vector<RequestSpan> spans = build_spans(events);
    EXPECT_EQ(spans.size(), expected_spans);
    for (const RequestSpan& s : spans) {
      expect_phases_tile(s);
      EXPECT_EQ(s.bytes, static_cast<i64>(cfg.ior.transfer_size));
      EXPECT_GE(s.strips, 1);
    }
    return phase_totals(spans);
  }
};

TEST_F(FullStack, SpansAccountForEveryReadAndSaisCutsMigration) {
  // 4 procs × (512 KiB / 128 KiB) reads each.
  constexpr u64 kExpected = 4 * 4;
  const PhaseTotals baseline = run(PolicyKind::kIrqbalance, kExpected);
  const PhaseTotals sais = run(PolicyKind::kSourceAware, kExpected);
  EXPECT_GT(baseline.share(Phase::kMigration), 0.0);
  EXPECT_LT(sais.share(Phase::kMigration),
            baseline.share(Phase::kMigration));
}

#endif  // SAISIM_TRACING_ENABLED

}  // namespace
}  // namespace saisim::trace
