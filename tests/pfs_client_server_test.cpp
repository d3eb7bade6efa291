// Integration tests of the PFS protocol: client, I/O servers, metadata
// server and NIC wired over the simulated network.
#include <gtest/gtest.h>

#include <optional>

#include "support/test_cluster.hpp"

namespace saisim::pfs {
namespace {

struct PfsFixture : ::testing::Test {
  static constexpr int kServers = 4;
  static constexpr u64 kStrip = 64ull << 10;

  std::optional<Cluster> cluster;
  PfsClient* client = nullptr;
  net::ClientNic* nic = nullptr;

  void build(IoServerConfig server_cfg = {}, PfsClientConfig client_cfg = {},
             net::NicConfig nic_cfg = {}) {
    ExperimentConfig cfg = test::cluster_config();
    cfg.server.io = server_cfg;
    cfg.client.pfs = client_cfg;
    cfg.client.nic = nic_cfg;
    cluster.emplace(cfg);
    client = &cluster->client(0).pfs();
    nic = &cluster->client(0).nic();
  }
};

TEST_F(PfsFixture, OpenRoundTrip) {
  build();
  bool opened = false;
  client->open(1, [&](Time) { opened = true; });
  cluster->sim().run();
  EXPECT_TRUE(opened);
  EXPECT_EQ(cluster->meta().stats().lookups, 1u);
}

TEST_F(PfsFixture, ReadCompletesWithAllStrips) {
  build();
  std::optional<ReadResult> result;
  client->read(1, std::nullopt, 0, 1ull << 20,
               [&](const ReadResult& r) { result = r; });
  cluster->sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->strips, 16u);
  EXPECT_EQ(result->retransmitted_strips, 0u);
  EXPECT_EQ(result->buffer.bytes, 1ull << 20);
  EXPECT_GT(result->completed_at, result->issued_at);
  EXPECT_EQ(client->stats().reads_completed, 1u);
  EXPECT_EQ(client->stats().strips_received, 16u);
}

TEST_F(PfsFixture, EachServerServesItsStrips) {
  build();
  client->read(1, std::nullopt, 0, 1ull << 20, nullptr);
  cluster->sim().run();
  // 16 strips round-robin over 4 servers = 4 each.
  for (int i = 0; i < kServers; ++i) {
    EXPECT_EQ(cluster->server(i).stats().requests, 4u);
    EXPECT_EQ(cluster->server(i).stats().bytes_served, 4 * kStrip);
  }
}

TEST_F(PfsFixture, StripConsumerInvokedPerStrip) {
  build();
  u64 strips_seen = 0;
  u64 bytes_seen = 0;
  client->read(1, std::nullopt, 0, 512ull << 10, nullptr,
               [&](const net::Packet& p, CoreId, Time) {
                 ++strips_seen;
                 bytes_seen += p.payload_bytes;
               });
  cluster->sim().run();
  EXPECT_EQ(strips_seen, 8u);
  EXPECT_EQ(bytes_seen, 512ull << 10);
}

TEST_F(PfsFixture, HintTravelsToServerAndBack) {
  build();
  const sais::SaisClient& sais_stack = *cluster->client(0).sais();
  CoreId handled_on = kNoCore;
  int handled = 0;
  client->read(1, CoreId{3}, 0, 256ull << 10, nullptr,
               [&](const net::Packet& p, CoreId handler, Time) {
                 ASSERT_TRUE(p.ip_options.has_value());  // HintCapsuler ran
                 handled_on = handler;
                 ++handled;
               });
  cluster->sim().run();
  EXPECT_EQ(handled, 4);
  EXPECT_EQ(handled_on, 3);  // SrcParser + IMComposer steered to core 3
  EXPECT_EQ(sais_stack.messager().stamped(), 4u);
  EXPECT_EQ(sais_stack.parser().parsed(), 4u);
}

TEST_F(PfsFixture, WithoutHintNoOptionsOnWire) {
  build();
  const sais::SaisClient& sais_stack = *cluster->client(0).sais();
  client->read(1, std::nullopt, 0, 128ull << 10, nullptr,
               [&](const net::Packet& p, CoreId, Time) {
                 EXPECT_FALSE(p.ip_options.has_value());
               });
  cluster->sim().run();
  EXPECT_EQ(sais_stack.messager().skipped(), 2u);
}

TEST_F(PfsFixture, HintBeyondEncodingGoesUnstamped) {
  build();
  const sais::SaisClient& sais_stack = *cluster->client(0).sais();
  client->read(1, CoreId{40}, 0, 128ull << 10, nullptr);
  cluster->sim().run();
  EXPECT_EQ(sais_stack.messager().unencodable(), 2u);
  EXPECT_EQ(sais_stack.messager().stamped(), 0u);
}

TEST_F(PfsFixture, RetransmitRecoversFromRxOverrun) {
  net::NicConfig nic_cfg;
  nic_cfg.ring_capacity = 1;  // aggressive drop regime
  PfsClientConfig client_cfg;
  client_cfg.retransmit_timeout = Time::ms(5);
  build({}, client_cfg, nic_cfg);
  // Stall all cores briefly so the first wave of strips overruns the ring.
  cpu::CpuSystem& cpus = cluster->client(0).cpus();
  for (int c = 0; c < cpus.num_cores(); ++c) {
    cpus.core(c).submit(cpu::WorkItem{
        .prio = cpu::Priority::kInterrupt,
        .cost = [](Time) { return Cycles{6'000'000}; },  // 3 ms at 2 GHz
        .on_complete = nullptr,
        .tag = "blocker"});
  }
  std::optional<ReadResult> result;
  client->read(1, std::nullopt, 0, 1ull << 20,
               [&](const ReadResult& r) { result = r; });
  cluster->sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(nic->stats().dropped, 0u);
  EXPECT_GT(client->stats().retransmits, 0u);
  EXPECT_GT(result->retransmitted_strips, 0u);
  EXPECT_EQ(client->stats().reads_completed, 1u);
}

TEST_F(PfsFixture, SlowServerDelaysCompletion) {
  build();
  std::optional<ReadResult> fast;
  client->read(1, std::nullopt, 0, 256ull << 10,
               [&](const ReadResult& r) { fast = r; });
  cluster->sim().run();
  ASSERT_TRUE(fast.has_value());
  const Time fast_latency = fast->completed_at - fast->issued_at;

  // Degrade server 0 the way experiments do: a straggler on the fabric
  // slows every packet to and from it.
  net::FaultConfig fault;
  fault.straggler_node = cluster->server_node(0);
  fault.straggler_delay = Time::ms(50);
  net::FaultInjector straggler(fault);
  cluster->network().set_fault_injectors({&straggler});
  std::optional<ReadResult> slow;
  client->read(1, std::nullopt, 1ull << 30, 256ull << 10,
               [&](const ReadResult& r) { slow = r; });
  cluster->sim().run();
  ASSERT_TRUE(slow.has_value());
  EXPECT_GT(slow->completed_at - slow->issued_at, fast_latency + Time::ms(40));
  EXPECT_GT(straggler.stats().straggler_delays, 0u);
  cluster->network().set_fault_injectors({});
}

TEST_F(PfsFixture, ConcurrentReadsFromMultipleProcesses) {
  build();
  int completed = 0;
  for (ProcessId pid = 1; pid <= 3; ++pid) {
    client->read(pid, std::nullopt, static_cast<u64>(pid) << 24, 512ull << 10,
                 [&](const ReadResult&) { ++completed; });
  }
  cluster->sim().run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(client->stats().reads_completed, 3u);
  EXPECT_EQ(client->stats().strips_received, 24u);
}

TEST_F(PfsFixture, ServerCacheHitsSkipDisk) {
  IoServerConfig server_cfg;
  server_cfg.cache_hit_ratio = 1.0;
  server_cfg.disk_seek = Time::ms(100);  // would be very visible
  build(server_cfg);
  std::optional<ReadResult> result;
  client->read(1, std::nullopt, 0, 256ull << 10,
               [&](const ReadResult& r) { result = r; });
  cluster->sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(result->completed_at - result->issued_at, Time::ms(10));
  u64 hits = 0;
  for (int i = 0; i < kServers; ++i) {
    hits += cluster->server(i).stats().cache_hits;
  }
  EXPECT_EQ(hits, 4u);
}

TEST_F(PfsFixture, ReadLatencyStatRecorded) {
  build();
  client->read(1, std::nullopt, 0, 128ull << 10, nullptr);
  cluster->sim().run();
  EXPECT_EQ(client->stats().read_latency_us.count(), 1u);
  EXPECT_GT(client->stats().read_latency_us.mean(), 0.0);
}

}  // namespace
}  // namespace saisim::pfs
