// PFS protocol recovery under injected network faults — the regression
// suite for the bugs the lossless fabric used to hide: reads and writes
// recover via retransmit, budget exhaustion completes with a failure
// status instead of crashing, RTO backoff is capped, and duplicate/late
// replies of every kind are deduplicated.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>

#include "pfs/protocol.hpp"
#include "support/test_cluster.hpp"

namespace saisim::pfs {
namespace {

// Plain struct (not a ::testing::Test) so the determinism test below can
// instantiate two independent rigs inside one TEST body.
struct FaultRig {
  std::optional<Cluster> cluster;
  PfsClient* client = nullptr;
  net::ClientNic* nic = nullptr;

  void build(net::FaultConfig fault_cfg = {}, PfsClientConfig pfs_cfg = {}) {
    ExperimentConfig cfg = test::cluster_config();
    cfg.fault = fault_cfg;
    cfg.client.pfs = pfs_cfg;
    cluster.emplace(cfg);
    client = &cluster->client(0).pfs();
    nic = &cluster->client(0).nic();
  }
};

struct FaultFixture : ::testing::Test, FaultRig {};

TEST_F(FaultFixture, ReadRecoversFromPacketLoss) {
  net::FaultConfig fc;
  fc.loss_rate = 0.3;
  fc.seed = 7;
  PfsClientConfig pc;
  pc.retransmit_timeout = Time::ms(20);
  build(fc, pc);

  std::optional<ReadResult> result;
  client->read(1, std::nullopt, 0, 512ull << 10,
               [&](const ReadResult& r) { result = r; });
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->strips, 8u);
  EXPECT_EQ(client->stats().reads_completed, 1u);
  EXPECT_EQ(client->stats().reads_failed, 0u);
  // 30% loss over 16+ packets: recovery must have used the timeout path.
  EXPECT_GT(client->stats().retransmits, 0u);
  EXPECT_GT(result->retransmitted_strips, 0u);
}

TEST_F(FaultFixture, WriteRecoversFromDroppedDataOrAck) {
  net::FaultConfig fc;
  fc.loss_rate = 0.3;
  fc.seed = 11;
  PfsClientConfig pc;
  pc.retransmit_timeout = Time::ms(20);
  build(fc, pc);

  const auto buffer = client->allocate_buffer(512ull << 10);
  std::optional<ReadResult> result;
  client->write(1, std::nullopt, 0, buffer,
                [&](const ReadResult& r) { result = r; });
  cluster->sim().run();
  test::expect_drained(*client);
  // When writes had no retransmit timer, any dropped data or ack packet
  // hung this run forever (run() only returns because retransmits
  // eventually push every ack through).
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(client->stats().writes_completed, 1u);
  EXPECT_EQ(client->stats().writes_failed, 0u);
  EXPECT_GT(client->stats().retransmits, 0u);
}

// Reads and writes share one request path (pending record, RTO ladder,
// retry budget, failure path), so every recovery property below runs in
// both directions. A write's "reply" is the server's ack.
enum class Dir { kRead, kWrite };

void PrintTo(Dir d, std::ostream* os) {
  *os << (d == Dir::kRead ? "read" : "write");
}

struct RecoveryFixture : ::testing::TestWithParam<Dir>, FaultRig {
  bool writing() const { return GetParam() == Dir::kWrite; }

  /// Issue a `bytes` request at file offset 0 in the fixture's direction;
  /// its completion lands in `result`.
  RequestId issue(u64 bytes, std::optional<ReadResult>& result) {
    auto done = [&result](const ReadResult& r) { result = r; };
    if (writing()) {
      return client->write(1, std::nullopt, 0, client->allocate_buffer(bytes),
                           done);
    }
    return client->read(1, std::nullopt, 0, bytes, done);
  }
  u64 completed() const {
    const PfsClientStats& st = client->stats();
    return writing() ? st.writes_completed : st.reads_completed;
  }
  u64 failed() const {
    const PfsClientStats& st = client->stats();
    return writing() ? st.writes_failed : st.reads_failed;
  }
};

INSTANTIATE_TEST_SUITE_P(BothDirections, RecoveryFixture,
                         ::testing::Values(Dir::kRead, Dir::kWrite),
                         [](const ::testing::TestParamInfo<Dir>& p) {
                           return p.param == Dir::kRead ? "read" : "write";
                         });

TEST_P(RecoveryFixture, BudgetExhaustionFailsGracefully) {
  net::FaultConfig fc;
  fc.loss_rate = 1.0;
  PfsClientConfig pc;
  pc.retransmit_timeout = Time::ms(10);
  pc.max_retransmits = 2;
  build(fc, pc);

  // 8 strips read, 4 written.
  const u64 bytes = writing() ? 256ull << 10 : 512ull << 10;
  const u32 strips = writing() ? 4u : 8u;
  const mem::AddressSpace& space = cluster->client(0).address_space();
  std::optional<ReadResult> result;
  const u64 live_before = space.live_bytes();
  issue(bytes, result);
  // A write's source buffer is the caller's and stays allocated.
  const u64 live_issued = writing() ? space.live_bytes() : live_before;
  cluster->sim().run();  // used to SAISIM_CHECK-abort; must now drain cleanly
  test::expect_drained(*client);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failed);
  EXPECT_EQ(result->lost_strips, strips);
  EXPECT_EQ(result->strips, strips);
  EXPECT_EQ(failed(), 1u);
  EXPECT_EQ(completed(), 0u);
  // The failed read's buffer went back to the address space; the write's
  // did not, because it was never the client's.
  EXPECT_EQ(space.live_bytes(), live_issued);
}

TEST_P(RecoveryFixture, RtoBackoffIsCappedAtConfiguredCeiling) {
  net::FaultConfig fc;
  fc.loss_rate = 1.0;
  PfsClientConfig pc;
  pc.retransmit_timeout = Time::ms(100);
  pc.max_retransmit_timeout = Time::ms(200);
  pc.max_retransmits = 2;
  build(fc, pc);

  std::optional<ReadResult> result;
  issue(64ull << 10, result);
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failed);
  // Timeouts fire at 100ms (retry 1), +min(200, 200) = 300ms (retry 2),
  // +min(400, 200) = 500ms (budget exhausted). Unbounded doubling would
  // fail at 700ms instead.
  EXPECT_EQ(result->completed_at - result->issued_at, Time::ms(500));
}

// backoff() used to keep doubling from wherever current_timeout had
// climbed, even after strips started landing — one early loss inflated
// every later timeout of the same request. Progress must reset the RTO to
// base. Timeline (base 100ms, no cap, budget 3): timeouts fire at 100
// (retry 1) and 300ms (retry 2); a strip hand-delivered at 250ms resets
// the RTO, so retry 3 fires at 500ms and the budget exhausts at 900ms.
// Pre-fix the doubling continued 400→800 and failure came at 1500ms.
TEST_P(RecoveryFixture, StripProgressResetsRtoToBase) {
  PfsClientConfig pc;
  pc.retransmit_timeout = Time::ms(100);
  pc.max_retransmit_timeout = Time::sec(10);  // cap out of the way
  pc.max_retransmits = 3;
  build({}, pc);

  // Black-hole every server: requests vanish without a drop record, so
  // the only reply the client ever sees is what this test injects.
  for (int i = 0; i < 4; ++i) {
    cluster->network().set_receiver(cluster->server_node(i),
                                    [](net::Packet) {});
  }

  std::optional<ReadResult> result;
  const RequestId id = issue(128ull << 10, result);  // 2 strips, servers 0+1

  // Mid-backoff (between the retry-1 and retry-2 timeouts), deliver strip
  // 0's reply by hand. on_rx keys purely off request/strip_index, and
  // dma_write does not validate the landing address, so a minimal packet
  // suffices.
  cluster->sim().after(Time::ms(250), [&] {
    net::Packet reply;
    reply.kind = writing() ? net::PacketKind::kPfsWriteAck
                           : net::PacketKind::kPfsData;
    reply.src = cluster->server_node(0);
    reply.dst = nic->node();
    reply.request = id;
    reply.strip_index = 0;
    reply.payload_bytes = writing() ? kWriteAckBytes : 64ull << 10;
    cluster->network().send(std::move(reply));
  });

  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failed);
  EXPECT_EQ(result->strips, 2u);
  EXPECT_EQ(result->lost_strips, 1u);  // strip 0 landed, strip 1 never did
  EXPECT_EQ(result->completed_at - result->issued_at, Time::ms(900));
}

TEST_F(FaultFixture, DuplicateMetaReplyIsCountedNotFatal) {
  build();
  bool opened = false;
  client->open(1, [&](Time) { opened = true; });
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(opened);

  // Re-deliver the (already consumed) metadata reply — the shape a
  // retransmitted open produces when the original reply was merely slow.
  net::Packet stale;
  stale.kind = net::PacketKind::kMetaReply;
  stale.request = 1;
  stale.src = cluster->meta_node();
  stale.dst = nic->node();
  stale.payload_bytes = kWriteAckBytes;
  const u64 dups_before = client->stats().duplicate_strips;
  cluster->network().send(stale);
  cluster->sim().run();  // used to SAISIM_CHECK-abort in on_rx
  test::expect_drained(*client);
  EXPECT_EQ(client->stats().duplicate_strips, dups_before + 1);
}

TEST_F(FaultFixture, OpenRetriesUntilMetaReplyArrives) {
  net::FaultConfig fc;
  fc.loss_rate = 0.5;
  fc.seed = 3;
  PfsClientConfig pc;
  pc.retransmit_timeout = Time::ms(10);
  build(fc, pc);

  bool opened = false;
  client->open(1, [&](Time) { opened = true; });
  cluster->sim().run();
  test::expect_drained(*client);
  EXPECT_TRUE(opened);
}

TEST_F(FaultFixture, DuplicatedDataStripsAreDeduped) {
  net::FaultConfig fc;
  fc.duplicate_rate = 1.0;
  build(fc);

  std::optional<ReadResult> result;
  client->read(1, std::nullopt, 0, 512ull << 10,
               [&](const ReadResult& r) { result = r; });
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  // Every packet delivered twice, yet each strip counts exactly once.
  EXPECT_EQ(client->stats().strips_received, 8u);
  EXPECT_GT(client->stats().duplicate_strips, 0u);
  EXPECT_EQ(client->stats().reads_completed, 1u);
}

// Same fixture, same fault seed: the entire simulation replays
// bit-identically (completion time, retransmit count, injector stats).
TEST(FaultDeterminism, SameSeedReplaysBitIdentically) {
  struct Outcome {
    Time completed_at;
    u64 retransmits;
    u64 dropped;
  };
  const auto run_once = [] {
    FaultRig f;
    net::FaultConfig fc;
    fc.loss_rate = 0.25;
    fc.max_jitter = Time::us(200);
    fc.seed = 42;
    PfsClientConfig pc;
    pc.retransmit_timeout = Time::ms(20);
    f.build(fc, pc);
    std::optional<ReadResult> result;
    f.client->read(1, std::nullopt, 0, 512ull << 10,
                   [&](const ReadResult& r) { result = r; });
    f.cluster->sim().run();
    test::expect_drained(*f.client);
    EXPECT_TRUE(result.has_value());
    return Outcome{result->completed_at, f.client->stats().retransmits,
                   f.cluster->fault_injectors()[0]->stats().packets_dropped};
  };
  const Outcome a = run_once();
  const Outcome b = run_once();
  EXPECT_EQ(a.completed_at, b.completed_at);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.dropped, b.dropped);
}

}  // namespace
}  // namespace saisim::pfs
