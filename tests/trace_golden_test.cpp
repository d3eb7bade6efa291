// Golden tests for the trace exporters.
//
// The Chrome-JSON exporter must be byte-deterministic: timestamps are
// formatted from integer picoseconds (no float printf), events are emitted
// in recording order, and runs are pre-sorted by the caller. Re-running the
// same configuration must reproduce the identical file, and the pinned
// FNV-1a hashes catch accidental format or instrumentation drift. If the
// format (or the instrumentation set) changes *intentionally*, re-pin from
// the failure output's "actual" value.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "trace/export.hpp"
#include "trace/span.hpp"
#include "trace/tracer.hpp"

namespace saisim::trace {
namespace {

std::string fnv1a_hex(const std::string& s) {
  u64 h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST(TraceExport, MinimalRunPinsTheFormat) {
  RunTrace run;
  run.label = "L";
  // Move-assigned: GCC 12 flags assigning this literal with a false
  // -Wrestrict.
  run.sort_key = std::string("k");
  Event rx;
  rx.when = Time::ns(1);
  rx.type = EventType::kNicRx;
  rx.node = 0;
  rx.core = 2;
  rx.request = 7;
  rx.a = 64;
  rx.b = 1;
  run.events.push_back(rx);
  Event begin = rx;
  begin.when = Time::ns(2);
  begin.type = EventType::kSoftirqBegin;
  begin.a = begin.b = 0;
  run.events.push_back(begin);
  Event end = begin;
  end.when = Time::ns(5);
  end.type = EventType::kSoftirqEnd;
  run.events.push_back(end);
  RequestSpan s;
  s.request = 7;
  s.issue = Time::zero();
  s.end = Time::ns(3);
  s.phase[0] = Time::ns(1);
  s.phase[5] = Time::ns(2);
  s.bytes = 4096;
  run.spans.push_back(s);
  run.counters = {{"nic.rx_messages", 1}};

  const std::string json = to_chrome_json({run});
  // Structural spot checks readable in a failure...
  EXPECT_NE(json.find("{\"name\":\"nic.rx\",\"cat\":\"net\",\"pid\":1,"
                      "\"tid\":2,\"ts\":0.001000,\"ph\":\"i\",\"s\":\"t\","
                      "\"args\":{\"request\":7,\"node\":0,\"a\":64,\"b\":1,"
                      "\"c\":0}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"softirq\",\"cat\":\"cpu\",\"pid\":1,"
                      "\"tid\":2,\"ts\":0.002000,\"ph\":\"X\","
                      "\"dur\":0.003000,\"args\":{\"request\":7}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"consume\",\"cat\":\"span\",\"pid\":1000,"
                      "\"tid\":7,\"ts\":0.001000,\"ph\":\"X\","
                      "\"dur\":0.002000,\"args\":{\"request\":7,"
                      "\"bytes\":4096}}"),
            std::string::npos);
  // ...and the byte-exact pin.
  EXPECT_EQ(fnv1a_hex(json), "2d1ea172bed71fd2");

  const std::string csv = metrics_csv({run});
  EXPECT_EQ(csv, "run,label,counter,value\n0,L,nic.rx_messages,1\n");
}

TEST(TraceExport, NegativeAndLargeTimestampsFormatExactly) {
  EXPECT_EQ(format_us(0), "0.000000");
  EXPECT_EQ(format_us(1), "0.000001");
  EXPECT_EQ(format_us(999'999), "0.999999");
  EXPECT_EQ(format_us(1'000'000), "1.000000");
  EXPECT_EQ(format_us(-1'500'000), "-1.500000");
  EXPECT_EQ(format_us(123'456'789'012'345), "123456789.012345");
}

#if defined(SAISIM_TRACING_ENABLED)

ExperimentConfig golden_config() {
  ExperimentConfig cfg;
  cfg.num_servers = 8;
  cfg.client.nic_bandwidth = Bandwidth::gbit(1.0);
  cfg.client.nic.queues = 1;
  cfg.ior.transfer_size = 128ull << 10;
  cfg.ior.total_bytes = 512ull << 10;
  cfg.policy = PolicyKind::kIrqbalance;
  return cfg;
}

std::string traced_run_json() {
  Tracer tracer;
  TraceScope scope(&tracer);
  (void)run_experiment(golden_config());
  RunTrace run;
  run.label = "golden";
  run.sort_key = "golden";
  run.events = tracer.take();
  run.spans = build_spans(run.events);
  return to_chrome_json({run});
}

TEST(TraceExport, RerunReproducesByteIdenticalJson) {
  const std::string first = traced_run_json();
  const std::string second = traced_run_json();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Pin the instrumented stream itself: a new/removed/reordered event in
  // the golden config flips this hash.
  EXPECT_EQ(fnv1a_hex(first), "beb2cff95b6dd305");
}

#endif  // SAISIM_TRACING_ENABLED

}  // namespace
}  // namespace saisim::trace
