#include <gtest/gtest.h>

#include "net/link.hpp"
#include "support/one_shard_net.hpp"

namespace saisim::net {
namespace {

TEST(Link, SerializationPlusLatency) {
  sim::Simulation s;
  Link link(s, Bandwidth::gbit(1.0), Time::us(2));
  Time delivered = Time::zero();
  link.send(1500, [&] { delivered = s.now(); });
  s.run();
  // 1500 B at 1 Gb/s = 12 us serialization + 2 us propagation.
  EXPECT_EQ(delivered, Time::us(14));
  EXPECT_EQ(link.bytes_sent(), 1500u);
  EXPECT_EQ(link.busy_time(), Time::us(12));
}

TEST(Link, BackToBackMessagesQueue) {
  sim::Simulation s;
  Link link(s, Bandwidth::gbit(1.0), Time::zero());
  std::vector<Time> deliveries;
  for (int i = 0; i < 3; ++i)
    link.send(1500, [&] { deliveries.push_back(s.now()); });
  s.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], Time::us(12));
  EXPECT_EQ(deliveries[1], Time::us(24));
  EXPECT_EQ(deliveries[2], Time::us(36));
  EXPECT_GT(link.queue_delay_us().max(), 0.0);
}

TEST(Link, UnlimitedBandwidthIsLatencyOnly) {
  sim::Simulation s;
  Link link(s, Bandwidth::unlimited(), Time::us(5));
  Time delivered = Time::zero();
  link.send(1ull << 30, [&] { delivered = s.now(); });
  s.run();
  EXPECT_EQ(delivered, Time::us(5));
}

struct NetFixture : ::testing::Test, test::OneShardNet {};

TEST_F(NetFixture, EndToEndDelivery) {
  const NodeId a = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0),
                                Time::us(2));
  const NodeId b = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0),
                                Time::us(2));
  std::optional<Packet> got;
  Time at = Time::zero();
  net.set_receiver(b, [&](Packet p) {
    got = std::move(p);
    at = s.now();
  });
  Packet p;
  p.src = a;
  p.dst = b;
  p.payload_bytes = 1448;  // one MTU frame: 1526 B on the wire
  net.send(p);
  s.run();
  ASSERT_TRUE(got.has_value());
  // Uplink ser (1526 B @1G = 12.208 us) + 2 us + switch 5 us + downlink
  // ser 12.208 us + 2 us.
  EXPECT_EQ(at, Time::ns(12208) * 2 + Time::us(2) * 2 + Time::us(5));
  EXPECT_EQ(got->payload_bytes, 1448u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST_F(NetFixture, FanInQueuesAtClientDownlink) {
  // Many 1G servers funnel into one 1G client port: deliveries serialize on
  // the client downlink — the NIC bottleneck of the paper.
  const NodeId client = net.add_node(Bandwidth::gbit(1.0),
                                     Bandwidth::gbit(1.0), Time::zero());
  std::vector<NodeId> servers;
  for (int i = 0; i < 4; ++i)
    servers.push_back(net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0),
                                   Time::zero()));
  std::vector<Time> deliveries;
  net.set_receiver(client, [&](Packet) { deliveries.push_back(s.now()); });
  for (NodeId sv : servers) {
    Packet p;
    p.src = sv;
    p.dst = client;
    p.payload_bytes = 1448;
    net.send(p);
  }
  s.run();
  ASSERT_EQ(deliveries.size(), 4u);
  // All four arrive at the switch simultaneously; the client downlink then
  // spaces them one serialization apart.
  const Time ser = Bandwidth::gbit(1.0).transfer_time(1448 + 78);
  EXPECT_EQ(deliveries[1] - deliveries[0], ser);
  EXPECT_EQ(deliveries[3] - deliveries[2], ser);
}

TEST_F(NetFixture, BondedClientDrainsThreeTimesFaster) {
  const NodeId c1 = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0),
                                 Time::zero());
  const NodeId c3 = net.add_node(Bandwidth::gbit(3.0), Bandwidth::gbit(3.0),
                                 Time::zero());
  const NodeId sv = net.add_node(Bandwidth::unlimited(),
                                 Bandwidth::unlimited(), Time::zero());
  Time t1, t3;
  net.set_receiver(c1, [&](Packet) { t1 = s.now(); });
  net.set_receiver(c3, [&](Packet) { t3 = s.now(); });
  for (NodeId dst : {c1, c3}) {
    Packet p;
    p.src = sv;
    p.dst = dst;
    p.payload_bytes = 1ull << 20;
    net.send(p);
  }
  s.run();
  const Time down1 = t1 - Time::us(5);
  const Time down3 = t3 - Time::us(5);
  EXPECT_NEAR(down1.seconds() / down3.seconds(), 3.0, 0.01);
}

TEST_F(NetFixture, DeliveryToUnregisteredReceiverAborts) {
  const NodeId a = net.add_node(Bandwidth::unlimited(), Bandwidth::unlimited());
  const NodeId b = net.add_node(Bandwidth::unlimited(), Bandwidth::unlimited());
  Packet p;
  p.src = a;
  p.dst = b;
  p.payload_bytes = 100;
  net.send(p);
  EXPECT_DEATH(s.run(), "no receiver");
}

TEST_F(NetFixture, InvalidNodeAborts) {
  Packet p;
  p.src = 0;
  p.dst = 5;
  EXPECT_DEATH(net.send(p), "");
}

}  // namespace
}  // namespace saisim::net
