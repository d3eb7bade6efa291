// Golden determinism tests for the simulation kernel.
//
// Each test runs a fixed small configuration and compares a bit-exact
// fingerprint of the resulting metrics against a recorded golden value.
// Doubles are encoded by their IEEE-754 bit pattern (`fingerprint_of`
// style), so *any* observable change — a reordered event, a different
// eviction victim, one extra DRAM queueing picosecond — flips the string.
//
// The goldens were recorded on the pre-overhaul kernel (std::unordered_map
// owner directory, binary-heap event queue of std::functions); the hot-path
// overhaul (flat owner directory, run-batched cache walks, pooled 4-ary
// event heap) must reproduce them bit-for-bit. If an *intentional* model
// change lands, re-record with: golden_metrics_test --gtest_also_run_disabled_tests
// and read the "actual" side of the failure output.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "memsim/memsim.hpp"
#include "trace/tracer.hpp"

namespace saisim {
namespace {

void hex_u64(std::string& out, u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  out += buf;
  out += '.';
}

void hex_f64(std::string& out, double v) { hex_u64(out, std::bit_cast<u64>(v)); }

/// Bit-exact encoding of every field of RunMetrics.
std::string metrics_fingerprint(const RunMetrics& m) {
  std::string fp;
  hex_f64(fp, m.bandwidth_mbps);
  hex_f64(fp, m.l2_miss_rate);
  hex_f64(fp, m.cpu_utilization);
  hex_f64(fp, m.unhalted_cycles);
  hex_f64(fp, m.softirq_cycles);
  hex_u64(fp, m.total_bytes);
  hex_u64(fp, static_cast<u64>(m.elapsed.picoseconds()));
  hex_u64(fp, m.c2c_transfers);
  hex_u64(fp, m.interrupts);
  hex_u64(fp, m.retransmits);
  hex_u64(fp, m.rx_drops);
  hex_u64(fp, m.hinted_interrupt_share_x1e4);
  hex_f64(fp, m.mean_read_latency_us);
  for (double b : m.per_client_bandwidth_mbps) hex_f64(fp, b);
  return fp;
}

std::string memsim_fingerprint(const memsim::MemsimResult& r) {
  std::string fp;
  hex_f64(fp, r.bandwidth_mbps);
  hex_f64(fp, r.l2_miss_rate);
  hex_f64(fp, r.cpu_utilization);
  hex_u64(fp, r.c2c_transfers);
  hex_u64(fp, static_cast<u64>(r.elapsed.picoseconds()));
  hex_u64(fp, r.total_bytes);
  return fp;
}

/// A small but full-stack experiment: 8 I/O servers, 128 KiB transfers,
/// 2 MiB per process, both policies exercised via the figure default
/// (kIrqbalance here; the 3 G variant runs kSourceAware so both interrupt
/// paths are pinned).
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

TEST(GoldenMetrics, Experiment1GigIrqbalance) {
  const RunMetrics m = run_experiment(small_experiment(1.0));
  EXPECT_EQ(metrics_fingerprint(m), "405ab2a60633f5ec.3fcd0fd371f6d543.3fbf61abcadbc100.41a8cb5676000000.41825b0d58000000.0000000000800000.000000124a069387.0000000000014000.0000000000000084.0000000000000000.0000000000000000.0000000000000000.40add8635ea0ba26.405ab2a60633f5ec.");
}

TEST(GoldenMetrics, Experiment3GigSourceAware) {
  const RunMetrics m = run_experiment(small_experiment(3.0));
  EXPECT_EQ(metrics_fingerprint(m), "406286f58a1029db.3fc2e40d4b04bd5f.3fbf8c6946df8696.41a1f59df4000000.41825b0d58000000.0000000000800000.0000000d2d6be2df.0000000000000000.0000000000000084.0000000000000000.0000000000000000.00000000000025e0.40a6384b608c825a.406286f58a1029db.");
}

#if defined(SAISIM_TRACING_ENABLED)
// The tracer is purely observational: running the same experiments with
// event recording enabled at runtime must reproduce the goldens above
// bit-for-bit. (The tracing-disabled case is the plain tests — the tracer
// is compiled in but no sink is installed.)
TEST(GoldenMetrics, Experiment1GigUnchangedWithTracingEnabled) {
  trace::Tracer tracer;
  trace::TraceScope scope(&tracer);
  const RunMetrics m = run_experiment(small_experiment(1.0));
  EXPECT_GT(tracer.size(), 0u);  // instrumentation actually recorded
  EXPECT_EQ(metrics_fingerprint(m), "405ab2a60633f5ec.3fcd0fd371f6d543.3fbf61abcadbc100.41a8cb5676000000.41825b0d58000000.0000000000800000.000000124a069387.0000000000014000.0000000000000084.0000000000000000.0000000000000000.0000000000000000.40add8635ea0ba26.405ab2a60633f5ec.");
}

TEST(GoldenMetrics, Experiment3GigUnchangedWithTracingEnabled) {
  trace::Tracer tracer;
  trace::TraceScope scope(&tracer);
  const RunMetrics m = run_experiment(small_experiment(3.0));
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_EQ(metrics_fingerprint(m), "406286f58a1029db.3fc2e40d4b04bd5f.3fbf8c6946df8696.41a1f59df4000000.41825b0d58000000.0000000000800000.0000000d2d6be2df.0000000000000000.0000000000000084.0000000000000000.0000000000000000.00000000000025e0.40a6384b608c825a.406286f58a1029db.");
}
#endif  // SAISIM_TRACING_ENABLED

TEST(GoldenMetrics, MemsimPoint) {
  memsim::MemsimConfig cfg;
  cfg.num_pairs = 2;
  cfg.source_aware = false;  // the c2c-heavy placement, worst case for the
                             // owner directory
  cfg.bytes_per_pair = 8ull << 20;
  cfg.warmup = Time::ms(2);
  cfg.duration = Time::ms(12);
  const memsim::MemsimResult r = memsim::run_memsim(cfg);
  EXPECT_EQ(memsim_fingerprint(r), "4080624dd2f1a9fc.3fe97829cbc14e5e.3fd9b1150626a99b.0000000000005000.00000002540be400.0000000000500000.");
}

}  // namespace
}  // namespace saisim
