#include "net/nic.hpp"

#include <gtest/gtest.h>

#include "support/one_shard_net.hpp"

namespace saisim::net {
namespace {

constexpr Frequency kFreq = Frequency::ghz(1.0);

struct NicFixture : ::testing::Test, test::OneShardNet {
  NicFixture() : OneShardNet(/*switch_latency=*/Time::us(1)) {}

  cpu::CpuSystem cpus{s, 4, kFreq};
  mem::MemorySystem memory{4, mem::CacheConfig{}, mem::MemoryTimings{}, kFreq,
                           Bandwidth::unlimited()};
  NodeId server = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0),
                               Time::zero());
  NodeId client = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0),
                               Time::zero());

  std::unique_ptr<apic::IoApic> apic_ =
      std::make_unique<apic::IoApic>(s, cpus,
                                     std::make_unique<apic::SourceAwarePolicy>());

  Packet data_packet(u64 bytes, Address addr, std::optional<CoreId> hint,
                     RequestId req = 1) {
    Packet p;
    p.kind = PacketKind::kPfsData;
    p.src = server;
    p.dst = client;
    p.request = req;
    p.payload_bytes = bytes;
    p.dma_addr = addr;
    if (hint) p.ip_options = IpOptions::encode(*hint);
    return p;
  }
};

TEST_F(NicFixture, DeliversPacketThroughSoftirqToHandler) {
  ClientNic nic(s, net, client, *apic_, memory, kFreq, NicConfig{});
  std::vector<std::pair<CoreId, u64>> seen;
  nic.set_rx_handler([&](const Packet& p, CoreId handler, Time) {
    seen.push_back({handler, p.payload_bytes});
  });
  net.send(data_packet(4096, 0, std::nullopt));
  s.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].second, 4096u);
  EXPECT_EQ(nic.stats().rx_messages, 1u);
  EXPECT_EQ(nic.stats().rx_bytes, 4096u);
  EXPECT_EQ(nic.stats().interrupts, 1u);
}

TEST_F(NicFixture, HintParserSteersInterrupt) {
  ClientNic nic(s, net, client, *apic_, memory, kFreq, NicConfig{});
  nic.set_hint_parser([](const Packet& p) {
    return p.ip_options ? IpOptions::parse(*p.ip_options) : std::nullopt;
  });
  CoreId handled_on = kNoCore;
  nic.set_rx_handler(
      [&](const Packet&, CoreId handler, Time) { handled_on = handler; });
  net.send(data_packet(4096, 0, CoreId{2}));
  s.run();
  EXPECT_EQ(handled_on, 2);
}

TEST_F(NicFixture, WithoutParserHintIsIgnored) {
  ClientNic nic(s, net, client, *apic_, memory, kFreq, NicConfig{});
  CoreId handled_on = kNoCore;
  nic.set_rx_handler(
      [&](const Packet&, CoreId handler, Time) { handled_on = handler; });
  net.send(data_packet(4096, 0, CoreId{2}));
  s.run();
  // SourceAwarePolicy falls back to round-robin: first interrupt -> core 0.
  EXPECT_EQ(handled_on, 0);
}

TEST_F(NicFixture, SoftirqTouchPullsPayloadIntoHandlerCache) {
  ClientNic nic(s, net, client, *apic_, memory, kFreq, NicConfig{});
  nic.set_hint_parser([](const Packet& p) {
    return p.ip_options ? IpOptions::parse(*p.ip_options) : std::nullopt;
  });
  bool checked = false;
  nic.set_rx_handler([&](const Packet& p, CoreId handler, Time) {
    EXPECT_EQ(handler, 3);
    EXPECT_TRUE(memory.resident(handler, p.dma_addr, p.payload_bytes));
    checked = true;
  });
  net.send(data_packet(8192, 1ull << 20, CoreId{3}));
  s.run();
  EXPECT_TRUE(checked);
}

TEST_F(NicFixture, RingOverrunDropsPackets) {
  NicConfig cfg;
  cfg.ring_capacity = 2;
  ClientNic nic(s, net, client, *apic_, memory, kFreq, cfg);
  u64 received = 0;
  nic.set_rx_handler([&](const Packet&, CoreId, Time) { ++received; });
  // Stall every core with higher-FIFO-position interrupt work so arriving
  // packets pile up unprocessed in the RX ring.
  for (int c = 0; c < cpus.num_cores(); ++c) {
    cpus.core(c).submit(cpu::WorkItem{
        .prio = cpu::Priority::kInterrupt,
        .cost = [](Time) { return Cycles{10'000'000}; },  // 10 ms at 1 GHz
        .on_complete = nullptr,
        .tag = "blocker"});
  }
  // Burst of 8 packets; ring holds 2 unprocessed.
  for (int i = 0; i < 8; ++i)
    net.send(data_packet(1448, static_cast<u64>(i) * 4096, std::nullopt,
                         100 + i));
  s.run();
  EXPECT_GT(nic.stats().dropped, 0u);
  EXPECT_EQ(nic.stats().rx_messages + nic.stats().dropped, 8u);
  EXPECT_EQ(received, nic.stats().rx_messages);
}

TEST_F(NicFixture, CoalescingBatchesInterrupts) {
  NicConfig cfg;
  cfg.coalesce_count = 4;
  ClientNic nic(s, net, client, *apic_, memory, kFreq, cfg);
  u64 received = 0;
  nic.set_rx_handler([&](const Packet&, CoreId, Time) { ++received; });
  for (int i = 0; i < 8; ++i)
    net.send(data_packet(1448, static_cast<u64>(i) * 4096, std::nullopt, 7));
  s.run();
  EXPECT_EQ(received, 8u);
  EXPECT_EQ(nic.stats().interrupts, 2u);  // 8 packets / 4 per interrupt
}

TEST_F(NicFixture, MultiQueueSpreadsFlowsByRss) {
  NicConfig cfg;
  cfg.queues = 3;  // bonded 3x1G
  ClientNic nic(s, net, client, *apic_, memory, kFreq, cfg);
  nic.set_rx_handler([](const Packet&, CoreId, Time) {});
  // Packets from several "servers": different flow hashes.
  for (int i = 0; i < 30; ++i) {
    Packet p = data_packet(1448, static_cast<u64>(i) * 4096, std::nullopt,
                           1000 + i);
    net.send(p);
  }
  s.run();
  EXPECT_EQ(nic.stats().interrupts, 30u);
  EXPECT_EQ(nic.stats().rx_messages, 30u);
}

TEST_F(NicFixture, ControlPacketsWithNoPayloadSkipDma) {
  ClientNic nic(s, net, client, *apic_, memory, kFreq, NicConfig{});
  u64 received = 0;
  nic.set_rx_handler([&](const Packet&, CoreId, Time) { ++received; });
  Packet p = data_packet(0, 0, std::nullopt);
  p.kind = PacketKind::kMetaReply;
  net.send(p);
  s.run();
  EXPECT_EQ(received, 1u);
}

}  // namespace
}  // namespace saisim::net
