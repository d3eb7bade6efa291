// FaultInjector unit tests: the disabled injector is inert, every knob has
// the documented packet-level effect, and a (config, seed) pair judges a
// packet sequence identically on every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fault.hpp"
#include "support/one_shard_net.hpp"

namespace saisim::net {
namespace {

Packet make_packet(NodeId src, NodeId dst, u64 payload = 1024) {
  Packet p;
  p.kind = PacketKind::kPfsData;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = payload;
  return p;
}

TEST(FaultConfig, DisabledByDefault) {
  EXPECT_FALSE(fault_enabled(FaultConfig{}));
}

TEST(FaultConfig, AnyArmedKnobEnables) {
  FaultConfig c;
  c.loss_rate = 0.01;
  EXPECT_TRUE(fault_enabled(c));
  c = FaultConfig{};
  c.duplicate_rate = 0.01;
  EXPECT_TRUE(fault_enabled(c));
  c = FaultConfig{};
  c.max_jitter = Time::us(10);
  EXPECT_TRUE(fault_enabled(c));
  c = FaultConfig{};
  c.straggler_node = 0;
  c.straggler_delay = Time::ms(1);
  EXPECT_TRUE(fault_enabled(c));
  // A straggler with zero extra delay is inert.
  c.straggler_delay = Time::zero();
  EXPECT_FALSE(fault_enabled(c));
  c = FaultConfig{};
  c.degrade_start = Time::zero();
  c.degrade_end = Time::ms(10);
  c.degrade_factor = 2.0;
  EXPECT_TRUE(fault_enabled(c));
  // An empty window or unit factor is inert.
  c.degrade_factor = 1.0;
  EXPECT_FALSE(fault_enabled(c));
}

TEST(FaultConfig, DegradeWindowMustBeOrdered) {
  FaultConfig c;
  c.degrade_start = Time::ms(10);
  c.degrade_end = Time::ms(5);
  const auto errors = util::reflect::validate_config(c);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("degrade"), std::string::npos);
}

TEST(FaultInjector, SameSeedJudgesIdentically) {
  FaultConfig cfg;
  cfg.loss_rate = 0.4;
  cfg.duplicate_rate = 0.3;
  cfg.max_jitter = Time::us(50);
  cfg.seed = 1234;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  for (int i = 0; i < 200; ++i) {
    const Packet p = make_packet(i % 3, 3);
    const auto va = a.judge(p, Time::us(i), Time::us(1));
    const auto vb = b.judge(p, Time::us(i), Time::us(1));
    EXPECT_EQ(va.drop, vb.drop);
    EXPECT_EQ(va.duplicate, vb.duplicate);
    EXPECT_EQ(va.delay, vb.delay);
    EXPECT_EQ(va.dup_delay, vb.dup_delay);
  }
  EXPECT_EQ(a.stats().packets_dropped, b.stats().packets_dropped);
  EXPECT_EQ(a.stats().packets_duplicated, b.stats().packets_duplicated);
  EXPECT_EQ(a.stats().packets_jittered, b.stats().packets_jittered);
}

TEST(FaultInjector, TotalLossDropsEveryPacket) {
  test::OneShardNet fabric;
  sim::Simulation& s = fabric.s;
  Network& net = fabric.net;
  const NodeId a = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId b = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  int delivered = 0;
  net.set_receiver(b, [&](Packet) { ++delivered; });

  FaultConfig cfg;
  cfg.loss_rate = 1.0;
  FaultInjector inj(cfg);
  net.set_fault_injectors({&inj});
  for (int i = 0; i < 10; ++i) net.send(make_packet(a, b));
  s.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(inj.stats().packets_dropped, 10u);
}

TEST(FaultInjector, CertainDuplicationDeliversEveryPacketTwice) {
  test::OneShardNet fabric;
  sim::Simulation& s = fabric.s;
  Network& net = fabric.net;
  const NodeId a = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId b = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  int delivered = 0;
  net.set_receiver(b, [&](Packet) { ++delivered; });

  FaultConfig cfg;
  cfg.duplicate_rate = 1.0;
  FaultInjector inj(cfg);
  net.set_fault_injectors({&inj});
  for (int i = 0; i < 5; ++i) net.send(make_packet(a, b));
  s.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(inj.stats().packets_duplicated, 5u);
}

TEST(FaultInjector, JitterReordersBackToBackPackets) {
  test::OneShardNet fabric;
  sim::Simulation& s = fabric.s;
  Network& net = fabric.net;
  const NodeId a = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId b = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  std::vector<u64> arrival_order;
  net.set_receiver(b, [&](Packet p) { arrival_order.push_back(p.id); });

  // Jitter far larger than a tiny packet's serialization: a FIFO fabric
  // would deliver in id order, the jittered one must not.
  FaultConfig cfg;
  cfg.max_jitter = Time::ms(10);
  cfg.seed = 99;
  FaultInjector inj(cfg);
  net.set_fault_injectors({&inj});
  for (u64 i = 0; i < 20; ++i) {
    Packet p = make_packet(a, b, 64);
    p.id = i;
    net.send(std::move(p));
  }
  s.run();
  ASSERT_EQ(arrival_order.size(), 20u);
  EXPECT_FALSE(std::is_sorted(arrival_order.begin(), arrival_order.end()));
  EXPECT_GT(inj.stats().packets_jittered, 0u);
}

TEST(FaultInjector, StragglerDelaysOnlyThatSourceNode) {
  test::OneShardNet fabric;
  sim::Simulation& s = fabric.s;
  Network& net = fabric.net;
  const NodeId straggler =
      net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId healthy =
      net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId sink = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  Time straggler_at = Time::zero();
  Time healthy_at = Time::zero();
  net.set_receiver(sink, [&](Packet p) {
    (p.src == straggler ? straggler_at : healthy_at) = s.now();
  });

  FaultConfig cfg;
  cfg.straggler_node = straggler;
  cfg.straggler_delay = Time::ms(5);
  FaultInjector inj(cfg);
  net.set_fault_injectors({&inj});
  net.send(make_packet(straggler, sink));
  net.send(make_packet(healthy, sink));
  s.run();
  // Identical packets over identical links; only the straggler's extra
  // delay separates the two arrivals.
  EXPECT_EQ(straggler_at - healthy_at, Time::ms(5));
  EXPECT_EQ(inj.stats().straggler_delays, 1u);
  EXPECT_EQ(inj.stats().straggler_tx_delays, 1u);
  EXPECT_EQ(inj.stats().straggler_rx_delays, 0u);
}

// The original injector matched only p.src, so the request leg *to* the
// slow server escaped the penalty and the effective degradation was half
// the knob. Both legs must now pay, with per-leg accounting; this test
// fails on the pre-fix (tx-only) matching.
TEST(FaultInjector, StragglerDelaysBothLegsThroughTheNode) {
  test::OneShardNet fabric;
  sim::Simulation& s = fabric.s;
  Network& net = fabric.net;
  const NodeId straggler =
      net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId healthy =
      net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId healthy2 =
      net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId sink = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  Time to_straggler_at = Time::zero();
  Time to_sink_at = Time::zero();
  net.set_receiver(straggler, [&](Packet) { to_straggler_at = s.now(); });
  net.set_receiver(sink, [&](Packet) { to_sink_at = s.now(); });

  FaultConfig cfg;
  cfg.straggler_node = straggler;
  cfg.straggler_delay = Time::ms(5);
  FaultInjector inj(cfg);
  net.set_fault_injectors({&inj});
  // Distinct senders so the probes never share a TX link: any arrival skew
  // is the injector's doing.
  net.send(make_packet(healthy, straggler));   // the request leg
  net.send(make_packet(healthy2, sink));       // control: same link timing
  s.run();
  EXPECT_EQ(to_straggler_at - to_sink_at, Time::ms(5));
  EXPECT_EQ(inj.stats().straggler_delays, 1u);
  EXPECT_EQ(inj.stats().straggler_tx_delays, 0u);
  EXPECT_EQ(inj.stats().straggler_rx_delays, 1u);
}

TEST(FaultInjector, DegradationStretchesOnlyTheWindow) {
  // Same packet sent inside and (on a fresh simulation) outside the
  // degradation window: the inside send pays (factor - 1) extra downlink
  // serializations.
  const auto arrival = [](Time send_at, FaultConfig cfg) {
    test::OneShardNet fabric;
    sim::Simulation& s = fabric.s;
    Network& net = fabric.net;
    const NodeId a = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
    const NodeId b = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
    Time at = Time::zero();
    net.set_receiver(b, [&](Packet) { at = s.now(); });
    FaultInjector inj(cfg);
    net.set_fault_injectors({&inj});
    s.after(send_at, [&] { net.send(make_packet(a, b, 4096)); });
    s.run();
    return at - send_at;
  };

  FaultConfig cfg;
  cfg.degrade_start = Time::ms(1);
  cfg.degrade_end = Time::ms(2);
  cfg.degrade_factor = 3.0;
  const Time inside = arrival(Time::ms(1), cfg);
  const Time outside = arrival(Time::ms(5), cfg);
  Packet probe = make_packet(0, 1, 4096);
  const Time ser = Bandwidth::gbit(1.0).transfer_time(probe.wire_bytes());
  EXPECT_EQ(inside - outside, ser * 2);
}

TEST(FaultInjector, InjectorListMustCoverEveryShard) {
  test::OneShardNet fabric;
  FaultInjector a(FaultConfig{}), b(FaultConfig{});
  EXPECT_DEATH(fabric.net.set_fault_injectors({&a, &b}), "");
}

TEST(FaultInjector, NullInjectorPathIsLossless) {
  test::OneShardNet fabric;
  sim::Simulation& s = fabric.s;
  Network& net = fabric.net;
  const NodeId a = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  const NodeId b = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  int delivered = 0;
  net.set_receiver(b, [&](Packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.send(make_packet(a, b));
  s.run();
  EXPECT_EQ(delivered, 10);
}

}  // namespace
}  // namespace saisim::net
