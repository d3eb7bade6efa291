// Integration tests of the PFS protocol: client, I/O servers, metadata
// server and NIC wired over the simulated network.
#include <gtest/gtest.h>

#include "pfs/io_server.hpp"
#include "pfs/meta_server.hpp"
#include "pfs/pfs_client.hpp"
#include "sais/sais_client.hpp"

namespace saisim::pfs {
namespace {

constexpr Frequency kFreq = Frequency::ghz(2.0);

struct PfsFixture : ::testing::Test {
  static constexpr int kServers = 4;
  static constexpr u64 kStrip = 64ull << 10;

  sim::Simulation s;
  net::Network net{s, Time::us(5)};
  cpu::CpuSystem cpus{s, 4, kFreq};
  mem::MemorySystem memory{4, mem::CacheConfig{}, mem::MemoryTimings{}, kFreq,
                           Bandwidth::unlimited()};
  mem::AddressSpace space{64};

  std::vector<NodeId> server_nodes;
  NodeId meta_node = kNoNode;
  NodeId client_node = kNoNode;
  std::vector<std::unique_ptr<IoServer>> servers;
  std::unique_ptr<MetaServer> meta;
  std::unique_ptr<apic::IoApic> apic_;
  std::unique_ptr<net::ClientNic> nic;
  std::unique_ptr<PfsClient> client;

  void build(IoServerConfig server_cfg = {}, PfsClientConfig client_cfg = {},
             net::NicConfig nic_cfg = {}) {
    for (int i = 0; i < kServers; ++i) {
      server_nodes.push_back(
          net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0)));
    }
    meta_node = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
    client_node = net.add_node(Bandwidth::gbit(3.0), Bandwidth::gbit(3.0));
    for (NodeId n : server_nodes) {
      servers.push_back(std::make_unique<IoServer>(s, net, n, server_cfg));
    }
    meta = std::make_unique<MetaServer>(s, net, meta_node);
    apic_ = std::make_unique<apic::IoApic>(
        s, cpus, std::make_unique<apic::SourceAwarePolicy>());
    nic = std::make_unique<net::ClientNic>(s, net, client_node, *apic_, memory,
                                           kFreq, nic_cfg);
    client = std::make_unique<PfsClient>(s, net, *nic, client_node,
                                         StripeLayout(kStrip, kServers),
                                         server_nodes, meta_node, space,
                                         client_cfg);
  }
};

TEST_F(PfsFixture, OpenRoundTrip) {
  build();
  bool opened = false;
  client->open(1, [&](Time) { opened = true; });
  s.run();
  EXPECT_TRUE(opened);
  EXPECT_EQ(meta->lookups(), 1u);
}

TEST_F(PfsFixture, ReadCompletesWithAllStrips) {
  build();
  std::optional<ReadResult> result;
  client->read(1, std::nullopt, 0, 1ull << 20,
               [&](const ReadResult& r) { result = r; });
  s.run();
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
  s.run();
  // 16 strips round-robin over 4 servers = 4 each.
  for (const auto& sv : servers) {
    EXPECT_EQ(sv->stats().requests, 4u);
    EXPECT_EQ(sv->stats().bytes_served, 4 * kStrip);
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
  s.run();
  EXPECT_EQ(strips_seen, 8u);
  EXPECT_EQ(bytes_seen, 512ull << 10);
}

TEST_F(PfsFixture, HintTravelsToServerAndBack) {
  build();
  sais::SaisClient sais_stack(*client, *nic);
  CoreId handled_on = kNoCore;
  int handled = 0;
  client->read(1, CoreId{3}, 0, 256ull << 10, nullptr,
               [&](const net::Packet& p, CoreId handler, Time) {
                 ASSERT_TRUE(p.ip_options.has_value());  // HintCapsuler ran
                 handled_on = handler;
                 ++handled;
               });
  s.run();
  EXPECT_EQ(handled, 4);
  EXPECT_EQ(handled_on, 3);  // SrcParser + IMComposer steered to core 3
  EXPECT_EQ(sais_stack.messager().stamped(), 4u);
  EXPECT_EQ(sais_stack.parser().parsed(), 4u);
}

TEST_F(PfsFixture, WithoutHintNoOptionsOnWire) {
  build();
  sais::SaisClient sais_stack(*client, *nic);
  client->read(1, std::nullopt, 0, 128ull << 10, nullptr,
               [&](const net::Packet& p, CoreId, Time) {
                 EXPECT_FALSE(p.ip_options.has_value());
               });
  s.run();
  EXPECT_EQ(sais_stack.messager().skipped(), 2u);
}

TEST_F(PfsFixture, HintBeyondEncodingGoesUnstamped) {
  build();
  sais::SaisClient sais_stack(*client, *nic);
  client->read(1, CoreId{40}, 0, 128ull << 10, nullptr);
  s.run();
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
  s.run();
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
  s.run();
  ASSERT_TRUE(fast.has_value());
  const Time fast_latency = fast->completed_at - fast->issued_at;

  // Degrade server 0 the way experiments do: a straggler on the fabric
  // slows every packet to and from it.
  net::FaultConfig fault;
  fault.straggler_node = server_nodes[0];
  fault.straggler_delay = Time::ms(50);
  net::FaultInjector straggler(fault);
  net.set_fault_injector(&straggler);
  std::optional<ReadResult> slow;
  client->read(1, std::nullopt, 1ull << 30, 256ull << 10,
               [&](const ReadResult& r) { slow = r; });
  s.run();
  ASSERT_TRUE(slow.has_value());
  EXPECT_GT(slow->completed_at - slow->issued_at, fast_latency + Time::ms(40));
  EXPECT_GT(straggler.stats().straggler_delays, 0u);
  net.set_fault_injector(nullptr);
}

TEST_F(PfsFixture, ConcurrentReadsFromMultipleProcesses) {
  build();
  int completed = 0;
  for (ProcessId pid = 1; pid <= 3; ++pid) {
    client->read(pid, std::nullopt, static_cast<u64>(pid) << 24, 512ull << 10,
                 [&](const ReadResult&) { ++completed; });
  }
  s.run();
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
  s.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(result->completed_at - result->issued_at, Time::ms(10));
  u64 hits = 0;
  for (const auto& sv : servers) hits += sv->stats().cache_hits;
  EXPECT_EQ(hits, 4u);
}

TEST_F(PfsFixture, ReadLatencyStatRecorded) {
  build();
  client->read(1, std::nullopt, 0, 128ull << 10, nullptr);
  s.run();
  EXPECT_EQ(client->stats().read_latency_us.count(), 1u);
  EXPECT_GT(client->stats().read_latency_us.mean(), 0.0);
}

}  // namespace
}  // namespace saisim::pfs
