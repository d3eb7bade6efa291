// Write-path tests: the negative control. Parallel writes fan strips out
// to the servers but the only return traffic is tiny acks, so interrupt
// placement has (almost) nothing to steer.
#include <gtest/gtest.h>

#include "pfs/protocol.hpp"
#include "support/test_cluster.hpp"

namespace saisim::pfs {
namespace {

struct WriteFixture : ::testing::Test {
  Cluster cluster{test::cluster_config()};
  sim::Simulation& s = cluster.sim();
  net::Network& net = cluster.network();
  PfsClient* client = &cluster.client(0).pfs();
};

TEST_F(WriteFixture, WriteCompletesWhenAllStripsAcked) {
  const auto buffer = client->allocate_buffer(512ull << 10);
  std::optional<ReadResult> result;
  client->write(1, std::nullopt, 0, buffer,
                [&](const ReadResult& r) { result = r; });
  s.run();
  test::expect_drained(*client);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->strips, 8u);
  EXPECT_EQ(client->stats().writes_completed, 1u);
  EXPECT_EQ(client->stats().strips_written, 8u);
}

TEST_F(WriteFixture, ServersPersistTheBytes) {
  const auto buffer = client->allocate_buffer(1ull << 20);
  client->write(1, std::nullopt, 0, buffer, nullptr);
  s.run();
  test::expect_drained(*client);
  u64 written = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.server(i).stats().write_requests, 4u);
    written += cluster.server(i).stats().bytes_written;
  }
  EXPECT_EQ(written, 1ull << 20);
}

TEST_F(WriteFixture, WriteLatencyIncludesDiskSerialization) {
  const auto buffer = client->allocate_buffer(256ull << 10);
  std::optional<ReadResult> result;
  client->write(1, std::nullopt, 0, buffer,
                [&](const ReadResult& r) { result = r; });
  s.run();
  test::expect_drained(*client);
  ASSERT_TRUE(result.has_value());
  // 4 strips, one per server: at least one 1ms seek + transfer each.
  EXPECT_GT(result->completed_at - result->issued_at, Time::ms(1));
  EXPECT_EQ(client->stats().write_latency_us.count(), 1u);
}

TEST_F(WriteFixture, DuplicateAcksAreCounted) {
  const auto buffer = client->allocate_buffer(128ull << 10);
  client->write(1, std::nullopt, 0, buffer, nullptr);
  s.run();
  test::expect_drained(*client);
  // Re-deliver a stale ack by hand.
  net::Packet stale;
  stale.kind = net::PacketKind::kPfsWriteAck;
  stale.request = 1;
  stale.strip_index = 0;
  // Request already completed: must be counted, not crash.
  const u64 dups_before = client->stats().duplicate_strips;
  // Simulate via the public rx path: send from a server node.
  stale.src = cluster.server_node(0);
  stale.dst = cluster.client(0).nic().node();
  stale.payload_bytes = kWriteAckBytes;
  stale.dma_addr = 0;
  net.send(stale);
  s.run();
  test::expect_drained(*client);
  EXPECT_EQ(client->stats().duplicate_strips, dups_before + 1);
}

TEST_F(WriteFixture, ConcurrentReadsAndWritesCoexist) {
  int completed = 0;
  client->read(1, std::nullopt, 0, 256ull << 10,
               [&](const ReadResult&) { ++completed; });
  const auto buffer = client->allocate_buffer(256ull << 10);
  client->write(2, std::nullopt, 1ull << 30, buffer,
                [&](const ReadResult&) { ++completed; });
  s.run();
  test::expect_drained(*client);
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(client->stats().reads_completed, 1u);
  EXPECT_EQ(client->stats().writes_completed, 1u);
}

}  // namespace
}  // namespace saisim::pfs
