// Drift guard: every config struct's describe() overload must cover every
// field, and so must every stats struct's (each described counter is a
// --metrics row) and RunMetrics' (each described field is an export
// column). Two fences, which must be updated *together* when a field is
// added:
//
//   1. the described-leaf count per struct (fails when describe() changes),
//   2. sizeof() per struct on x86-64/LP64 (fails when the struct grows —
//      so adding a member without describing it trips fence 2 while
//      fence 1 stays green, pointing straight at the missing describe()).
//
// If both fire, someone added *and* described a field: update both
// numbers, and re-record any golden fingerprints the field invalidates.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "memsim/memsim.hpp"
#include "realmem/real_memsim.hpp"

namespace saisim {
namespace {

using util::reflect::count_fields;

TEST(ConfigDrift, DescribedLeafCounts) {
  EXPECT_EQ(count_fields<mem::CacheConfig>(), 3u);
  EXPECT_EQ(count_fields<mem::MemoryTimings>(), 4u);
  EXPECT_EQ(count_fields<net::NicConfig>(), 8u);
  EXPECT_EQ(count_fields<net::FaultConfig>(), 9u);
  EXPECT_EQ(count_fields<pfs::IoServerConfig>(), 4u);
  EXPECT_EQ(count_fields<pfs::BufferCacheConfig>(), 9u);
  EXPECT_EQ(count_fields<pfs::ServerSchedConfig>(), 5u);
  EXPECT_EQ(count_fields<pfs::ClientSchedConfig>(), 6u);
  EXPECT_EQ(count_fields<pfs::MetaServerConfig>(), 2u);
  EXPECT_EQ(count_fields<pfs::PfsClientConfig>(), 4u);
  EXPECT_EQ(count_fields<workload::IorConfig>(), 13u);
  EXPECT_EQ(count_fields<workload::BackgroundConfig>(), 3u);
  EXPECT_EQ(count_fields<ClientMachineConfig>(), 30u);
  EXPECT_EQ(count_fields<ServerMachineConfig>(), 19u);
  EXPECT_EQ(count_fields<SimKernelConfig>(), 2u);
  EXPECT_EQ(count_fields<trace::TelemetrySloConfig>(), 4u);
  EXPECT_EQ(count_fields<trace::TelemetryConfig>(), 7u);
  EXPECT_EQ(count_fields<ExperimentConfig>(), 95u);
  EXPECT_EQ(count_fields<memsim::MemsimConfig>(), 23u);
  EXPECT_EQ(count_fields<realmem::RealMemConfig>(), 8u);
}

// Every counter field of a stats struct, and every RunMetrics column. The
// latency summaries/histogram, busy_by_prio and per_client_bandwidth_mbps
// are not counters or columns and stay undescribed.
TEST(ConfigDrift, StatsAndMetricsLeafCounts) {
  EXPECT_EQ(count_fields<pfs::PfsClientStats>(), 14u);
  EXPECT_EQ(count_fields<pfs::ClientSchedStats>(), 2u);
  EXPECT_EQ(count_fields<net::NicStats>(), 4u);
  EXPECT_EQ(count_fields<cpu::CoreAccounting>(), 4u);
  EXPECT_EQ(count_fields<pfs::IoServerStats>(), 8u);
  EXPECT_EQ(count_fields<pfs::BufferCache::Stats>(), 7u);
  EXPECT_EQ(count_fields<pfs::ServerCpu::Stats>(), 5u);
  EXPECT_EQ(count_fields<net::FaultStats>(), 7u);
  EXPECT_EQ(count_fields<pfs::MetaServerStats>(), 3u);
  EXPECT_EQ(count_fields<RunMetrics>(), 21u);
}

// Composite counts must be the sum of their parts — catches a group()
// call silently dropped from a parent describe().
TEST(ConfigDrift, CompositeCountsAreSumsOfParts) {
  EXPECT_EQ(count_fields<ClientMachineConfig>(),
            2u /* cores, core_freq */ + count_fields<mem::CacheConfig>() +
                count_fields<mem::MemoryTimings>() + 1u /* dram_bandwidth */ +
                count_fields<net::NicConfig>() +
                2u /* nic_bandwidth, user_quantum */ +
                count_fields<pfs::PfsClientConfig>() +
                count_fields<pfs::ClientSchedConfig>());
  EXPECT_EQ(count_fields<ServerMachineConfig>(),
            count_fields<pfs::IoServerConfig>() +
                count_fields<pfs::BufferCacheConfig>() +
                count_fields<pfs::ServerSchedConfig>() +
                1u /* nic_bandwidth */);
  EXPECT_EQ(count_fields<ExperimentConfig>(),
            2u /* num_clients, num_servers */ + 1u /* strip_size */ +
                count_fields<ClientMachineConfig>() +
                count_fields<ServerMachineConfig>() +
                count_fields<workload::IorConfig>() +
                1u /* procs_per_client */ + 1u /* policy */ +
                count_fields<workload::BackgroundConfig>() +
                1u /* enable_background */ + 2u /* latencies */ +
                count_fields<pfs::MetaServerConfig>() +
                2u /* seed, max_sim_time */ +
                count_fields<net::FaultConfig>() +
                count_fields<SimKernelConfig>() +
                count_fields<trace::TelemetryConfig>());
  EXPECT_EQ(count_fields<trace::TelemetryConfig>(),
            3u /* sample_period, flight_recorder_events, kernel_gauges */ +
                count_fields<trace::TelemetrySloConfig>());
}

#if defined(__x86_64__) && defined(__linux__)
// Struct sizes on the reference ABI. A new member changes these before
// anyone remembers the describe() overload exists — that is the point.
TEST(ConfigDrift, StructSizesMatchDescribedLayout) {
  EXPECT_EQ(sizeof(mem::CacheConfig), 24u);
  EXPECT_EQ(sizeof(mem::MemoryTimings), 32u);
  EXPECT_EQ(sizeof(net::NicConfig), 56u);
  EXPECT_EQ(sizeof(net::FaultConfig), 72u);
  EXPECT_EQ(sizeof(pfs::IoServerConfig), 32u);
  EXPECT_EQ(sizeof(pfs::BufferCacheConfig), 56u);
  EXPECT_EQ(sizeof(pfs::ServerSchedConfig), 32u);
  EXPECT_EQ(sizeof(pfs::ClientSchedConfig), 40u);
  EXPECT_EQ(sizeof(pfs::MetaServerConfig), 16u);
  EXPECT_EQ(sizeof(pfs::PfsClientConfig), 32u);
  EXPECT_EQ(sizeof(workload::IorConfig), 96u);
  EXPECT_EQ(sizeof(workload::BackgroundConfig), 24u);
  EXPECT_EQ(sizeof(ClientMachineConfig), 224u);
  EXPECT_EQ(sizeof(ServerMachineConfig), 128u);
  EXPECT_EQ(sizeof(SimKernelConfig), 16u);
  EXPECT_EQ(sizeof(trace::TelemetrySloConfig), 32u);
  EXPECT_EQ(sizeof(trace::TelemetryConfig), 56u);
  EXPECT_EQ(sizeof(ExperimentConfig), 696u);
  EXPECT_EQ(sizeof(memsim::MemsimConfig), 168u);
  EXPECT_EQ(sizeof(realmem::RealMemConfig), 48u);
}

TEST(ConfigDrift, StatsAndMetricsSizesMatchDescribedLayout) {
  EXPECT_EQ(sizeof(pfs::PfsClientStats), 736u);
  EXPECT_EQ(sizeof(pfs::ClientSchedStats), 16u);
  EXPECT_EQ(sizeof(net::NicStats), 32u);
  EXPECT_EQ(sizeof(cpu::CoreAccounting), 56u);
  EXPECT_EQ(sizeof(pfs::IoServerStats), 64u);
  EXPECT_EQ(sizeof(pfs::BufferCache::Stats), 56u);
  EXPECT_EQ(sizeof(pfs::ServerCpu::Stats), 40u);
  EXPECT_EQ(sizeof(net::FaultStats), 56u);
  EXPECT_EQ(sizeof(pfs::MetaServerStats), 24u);
  EXPECT_EQ(sizeof(RunMetrics), 192u);
}
#endif

// The default configs must pass their own declared validation — otherwise
// every bench would exit 2 before doing anything.
TEST(ConfigDrift, DefaultsAreValid) {
  EXPECT_TRUE(util::reflect::validate_config(ExperimentConfig{}).empty());
  EXPECT_TRUE(util::reflect::validate_config(memsim::MemsimConfig{}).empty());
  EXPECT_TRUE(
      util::reflect::validate_config(realmem::RealMemConfig{}).empty());
}

// telemetry.* validation: SLO thresholds are only meaningful when the
// sampler actually runs, and the sample period must not be negative.
TEST(ConfigDrift, TelemetryValidation) {
  ExperimentConfig cfg;
  cfg.telemetry.slo.p99_read_latency_us = 1000;  // armed, but no sampling
  const auto errors = util::reflect::validate_config(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("sample_period"), std::string::npos);

  cfg.telemetry.sample_period = Time::ms(1);
  EXPECT_TRUE(util::reflect::validate_config(cfg).empty());

  cfg.telemetry.sample_period = Time::ps(-1);
  EXPECT_FALSE(util::reflect::validate_config(cfg).empty());
}

// The paper's client (Fig. 4 testbed) encodes the source core in 5 bits of
// the IP options hint, so described validation must reject >32 cores.
TEST(ConfigDrift, CoreCountCapMatchesHintEncoding) {
  ExperimentConfig cfg;
  cfg.client.cores = 32;
  EXPECT_TRUE(util::reflect::validate_config(cfg).empty());
  cfg.client.cores = 33;
  const auto errors = util::reflect::validate_config(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("client.cores"), std::string::npos);
}

// A server cache set is one u64 valid mask in the shared LRU core, so
// described validation must reject more than 64 ways.
TEST(ConfigDrift, BufferCacheWaysCapMatchesValidMask) {
  ExperimentConfig cfg;
  cfg.server.cache.ways = 64;
  EXPECT_TRUE(util::reflect::validate_config(cfg).empty());
  cfg.server.cache.ways = 65;
  const auto errors = util::reflect::validate_config(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("server.cache.ways"), std::string::npos);
}

}  // namespace
}  // namespace saisim
