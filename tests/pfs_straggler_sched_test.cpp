// Client-side straggler-aware scheduling (DESIGN.md §16): EWMA estimator
// units (warmup gating, slow detection, recovery), redirect/probe/hedge
// dispatch decisions (also checked against a reference copy of the
// rescanning choose_target under seeded random traffic), the hedge
// lifecycle end-to-end against a black-holed server — including the
// duplicate-reply-after-hedge-won dedup regression —
// and the determinism bars: metrics fingerprints bit-identical at
// sim.shards 1/2/4 and sweep --threads 1 vs 4 with the scheduler, hedging,
// and a fault.straggler_delay all armed (the one injector knob that draws
// no RNG, so shard-count invariance must hold).
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "pfs/straggler_sched.hpp"
#include "util/rng.hpp"
#include "support/test_cluster.hpp"
#include "sweep/runner.hpp"

namespace saisim::pfs {
namespace {

// ---------------------------------------------------------------------------
// Estimator units

TEST(Ewma, WarmupGatesEstimateAndSlowDetection) {
  ClientSchedConfig cfg;
  cfg.policy = ClientSchedPolicy::kStragglerAware;
  cfg.min_samples = 4;
  StragglerScheduler sched(cfg, 2);

  // Even an absurdly slow server is invisible until it has min_samples:
  // warming estimates contribute to neither expected_latency nor is_slow.
  sched.record_rtt(0, Time::us(100));
  for (int i = 0; i < 3; ++i) sched.record_rtt(1, Time::ms(50));
  EXPECT_FALSE(sched.has_estimate(0));
  EXPECT_FALSE(sched.has_estimate(1));
  EXPECT_EQ(sched.expected_latency(1), Time::zero());
  EXPECT_FALSE(sched.is_slow(1));
  EXPECT_EQ(sched.hedge_delay(1), Time::zero());

  sched.record_rtt(1, Time::ms(50));  // 4th sample: now warm
  EXPECT_TRUE(sched.has_estimate(1));
  EXPECT_GT(sched.expected_latency(1), Time::zero());
  // ...but a lone warm server is the fleet minimum, hence never "slow".
  EXPECT_FALSE(sched.is_slow(1));
}

TEST(Ewma, FirstSampleSeedsThenConverges) {
  ClientSchedConfig cfg;
  cfg.policy = ClientSchedPolicy::kStragglerAware;
  cfg.ewma_alpha = 0.25;
  cfg.min_samples = 1;
  StragglerScheduler sched(cfg, 1);

  sched.record_rtt(0, Time::us(100));
  EXPECT_DOUBLE_EQ(sched.ewma_us(0), 100.0);  // first sample taken raw
  sched.record_rtt(0, Time::us(200));
  EXPECT_DOUBLE_EQ(sched.ewma_us(0), 125.0);  // 100 + 0.25 * (200 - 100)
  sched.record_rtt(0, Time::us(200));
  EXPECT_DOUBLE_EQ(sched.ewma_us(0), 143.75);
}

TEST(Ewma, DetectsSlowServerAgainstFleetMinimum) {
  ClientSchedConfig cfg;
  cfg.policy = ClientSchedPolicy::kStragglerAware;
  cfg.slow_threshold = 3.0;
  cfg.min_samples = 2;
  StragglerScheduler sched(cfg, 3);

  for (int i = 0; i < 2; ++i) {
    sched.record_rtt(0, Time::us(100));
    sched.record_rtt(1, Time::us(250));   // 2.5x the minimum: healthy
    sched.record_rtt(2, Time::us(1000));  // 10x the minimum: slow
  }
  EXPECT_FALSE(sched.is_slow(0));
  EXPECT_FALSE(sched.is_slow(1));
  EXPECT_TRUE(sched.is_slow(2));
}

TEST(Ewma, RecoversWhenDegradationWindowCloses) {
  ClientSchedConfig cfg;
  cfg.policy = ClientSchedPolicy::kStragglerAware;
  cfg.ewma_alpha = 0.25;
  cfg.slow_threshold = 3.0;
  cfg.min_samples = 1;
  StragglerScheduler sched(cfg, 2);

  sched.record_rtt(0, Time::us(100));
  sched.record_rtt(1, Time::us(400));
  EXPECT_TRUE(sched.is_slow(1));
  // The straggler heals; fast probe samples walk the estimate back down:
  // 400 -> 325 -> 268.75 < 3 x 100, so two good RTTs clear the verdict.
  sched.record_rtt(1, Time::us(100));
  EXPECT_TRUE(sched.is_slow(1));
  sched.record_rtt(1, Time::us(100));
  EXPECT_FALSE(sched.is_slow(1));
}

// ---------------------------------------------------------------------------
// Dispatch decision units

TEST(StragglerSched, RedirectsSlowPrimaryButProbesOnCadence) {
  ClientSchedConfig cfg;
  cfg.policy = ClientSchedPolicy::kStragglerAware;
  cfg.min_samples = 1;
  cfg.probe_interval = 4;
  StragglerScheduler sched(cfg, 3);
  sched.record_rtt(0, Time::us(1000));  // slow primary
  sched.record_rtt(1, Time::us(100));
  sched.record_rtt(2, Time::us(100));

  // Healthy primaries always keep their strips.
  EXPECT_EQ(sched.choose_target(1), 1u);
  EXPECT_EQ(sched.stats().redirected_strips, 0u);

  // Slow primary: dispatches 1-3 redirect, rotating over the healthy
  // replicas; the 4th is the deterministic probe, then the cycle repeats.
  EXPECT_EQ(sched.choose_target(0), 1u);
  EXPECT_EQ(sched.choose_target(0), 2u);
  EXPECT_EQ(sched.choose_target(0), 1u);
  EXPECT_EQ(sched.choose_target(0), 0u);  // probe
  EXPECT_EQ(sched.choose_target(0), 2u);
  EXPECT_EQ(sched.stats().redirected_strips, 4u);
  EXPECT_EQ(sched.stats().probe_strips, 1u);
}

TEST(StragglerSched, NeverRedirectsOntoSlowerReplica) {
  ClientSchedConfig cfg;
  cfg.policy = ClientSchedPolicy::kStragglerAware;
  cfg.min_samples = 1;
  StragglerScheduler sched(cfg, 3);
  sched.record_rtt(0, Time::us(400));
  sched.record_rtt(1, Time::us(500));
  sched.record_rtt(2, Time::us(100));  // healthy fleet minimum
  ASSERT_TRUE(sched.is_slow(0));
  ASSERT_TRUE(sched.is_slow(1));
  // The rotation starts at server 1 — slower still than the primary — so
  // the redirect must skip past it to the healthy server 2, repeatedly.
  EXPECT_EQ(sched.choose_target(0), 2u);
  EXPECT_EQ(sched.choose_target(0), 2u);
  EXPECT_EQ(sched.stats().redirected_strips, 2u);
}

TEST(StragglerSched, RedirectAvoidsPeersOfTheSameRead) {
  ClientSchedConfig cfg;
  cfg.policy = ClientSchedPolicy::kStragglerAware;
  cfg.min_samples = 1;
  StragglerScheduler sched(cfg, 4);
  sched.record_rtt(0, Time::us(1000));  // slow
  for (u64 srv = 1; srv < 4; ++srv) sched.record_rtt(srv, Time::us(100));

  // A 2-strip read on servers {0, 1}: the redirect must skip peer 1 even
  // though it is healthy and first in rotation order.
  sched.begin_read();
  sched.note_peer(0);
  sched.note_peer(1);
  EXPECT_EQ(sched.choose_target(0), 2u);

  // The next read's peer set replaces the previous one.
  sched.begin_read();
  sched.note_peer(0);
  sched.note_peer(3);
  const u64 t = sched.choose_target(0);
  EXPECT_TRUE(t == 1u || t == 2u) << t;

  // Full-stripe read: every healthy server is a peer, so the hold-out
  // preference yields and the strip still escapes the straggler.
  sched.begin_read();
  for (u64 srv = 0; srv < 4; ++srv) sched.note_peer(srv);
  const u64 full = sched.choose_target(0);
  EXPECT_NE(full, 0u);
}

TEST(StragglerSched, HedgeDelayAndTarget) {
  ClientSchedConfig cfg;
  cfg.policy = ClientSchedPolicy::kStragglerAware;
  cfg.min_samples = 1;
  cfg.hedge_quantile = 3.0;
  StragglerScheduler sched(cfg, 4);
  sched.record_rtt(2, Time::us(200));
  EXPECT_EQ(sched.hedge_delay(2), Time::us(600));  // quantile x estimate
  EXPECT_EQ(sched.hedge_delay(3), Time::zero());   // still warming

  // The hedge takes the path the first copy did not.
  EXPECT_EQ(sched.hedge_target(2, 2), 3u);  // un-redirected: replica
  EXPECT_EQ(sched.hedge_target(2, 3), 2u);  // redirected: back to primary

  ClientSchedConfig off = cfg;
  off.hedge_quantile = 0.0;
  StragglerScheduler no_hedge(off, 4);
  no_hedge.record_rtt(2, Time::us(200));
  EXPECT_EQ(no_hedge.hedge_delay(2), Time::zero());
}

/// choose_target as it was written before the fleet minimum was cached and
/// the rotation stepped by compares: a rescan per call, two `%` per
/// candidate. The scheduler must pick exactly what this picks.
struct ReferenceDispatch {
  struct Est {
    double ewma_us = 0.0;
    u64 samples = 0;
    u64 slow_dispatches = 0;
  };
  ClientSchedConfig cfg;
  std::vector<Est> servers;
  std::vector<u64> peer_epoch;
  u64 epoch = 0;
  u64 rr = 0;
  ClientSchedStats stats;

  ReferenceDispatch(const ClientSchedConfig& c, u64 n)
      : cfg(c), servers(n), peer_epoch(n, ~0ull) {}

  void record_rtt(u64 server, Time rtt) {
    Est& e = servers[server];
    const double us = static_cast<double>(rtt.picoseconds()) / 1e6;
    e.ewma_us =
        e.samples == 0 ? us : e.ewma_us + cfg.ewma_alpha * (us - e.ewma_us);
    ++e.samples;
  }
  bool has_estimate(u64 s) const {
    return servers[s].samples >= static_cast<u64>(cfg.min_samples);
  }
  double fleet_min_us() const {
    double best = -1.0;
    for (u64 s = 0; s < servers.size(); ++s) {
      if (!has_estimate(s)) continue;
      if (best < 0.0 || servers[s].ewma_us < best) best = servers[s].ewma_us;
    }
    return best < 0.0 ? 0.0 : best;
  }
  bool is_slow(u64 s, double fleet_min) const {
    return has_estimate(s) &&
           servers[s].ewma_us > cfg.slow_threshold * fleet_min;
  }
  u64 choose_target(u64 primary) {
    if (servers.size() < 2) return primary;
    const double fleet_min = fleet_min_us();
    if (!is_slow(primary, fleet_min)) return primary;
    Est& e = servers[primary];
    if (++e.slow_dispatches % static_cast<u64>(cfg.probe_interval) == 0) {
      ++stats.probe_strips;
      return primary;
    }
    const u64 n = servers.size();
    for (int pass = 0; pass < 2; ++pass) {
      for (u64 i = 0; i < n - 1; ++i) {
        const u64 cand = (primary + 1 + (rr + i) % (n - 1)) % n;
        if (is_slow(cand, fleet_min) &&
            servers[cand].ewma_us >= servers[primary].ewma_us) {
          continue;
        }
        if (pass == 0 && peer_epoch[cand] == epoch) continue;
        rr = (rr + i + 1) % (n - 1);
        ++stats.redirected_strips;
        return cand;
      }
    }
    return primary;
  }
};

TEST(StragglerSched, ChooseTargetMatchesReferenceUnderRandomTraffic) {
  Rng rng(1805'06156);
  u64 redirects = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ClientSchedConfig cfg;
    cfg.policy = ClientSchedPolicy::kStragglerAware;
    cfg.min_samples = 1 + static_cast<int>(rng.below(4));
    cfg.probe_interval = 1 + static_cast<int>(rng.below(8));
    cfg.slow_threshold = 1.0 + static_cast<double>(rng.below(30)) / 10.0;
    const u64 n = 2 + rng.below(15);
    StragglerScheduler sched(cfg, n);
    ReferenceDispatch ref(cfg, n);
    // A few stragglers, each some multiple of the base latency.
    std::vector<u64> slowdown(n, 1);
    for (u64 k = rng.below(4); k > 0; --k) {
      slowdown[rng.below(n)] = 2 + rng.below(8);
    }
    for (int step = 0; step < 400; ++step) {
      if (rng.below(3) == 0) {
        // A batch of replies, so several dispatches can share one scan.
        for (u64 k = 1 + rng.below(n); k > 0; --k) {
          const u64 srv = rng.below(n);
          const Time rtt = Time::us(static_cast<i64>(
              (50 + rng.below(100)) * slowdown[srv]));
          sched.record_rtt(srv, rtt);
          ref.record_rtt(srv, rtt);
        }
        if (rng.below(8) == 0) slowdown[rng.below(n)] = 1 + rng.below(8);
      } else {
        // One striped read: begin, mark its peers, dispatch its strips.
        sched.begin_read();
        ++ref.epoch;
        const u64 strips = 1 + rng.below(n);
        const u64 first = rng.below(n);
        for (u64 k = 0; k < strips; ++k) {
          const u64 srv = (first + k) % n;
          sched.note_peer(srv);
          ref.peer_epoch[srv] = ref.epoch;
        }
        for (u64 k = 0; k < strips; ++k) {
          const u64 primary = (first + k) % n;
          const u64 want = ref.choose_target(primary);
          ASSERT_EQ(sched.choose_target(primary), want)
              << "trial " << trial << " step " << step << " strip " << k;
        }
      }
      ASSERT_EQ(sched.stats().redirected_strips, ref.stats.redirected_strips);
      ASSERT_EQ(sched.stats().probe_strips, ref.stats.probe_strips);
    }
    redirects += ref.stats.redirected_strips;
  }
  EXPECT_GT(redirects, 1000u);  // the traffic does exercise the rotation
}

// ---------------------------------------------------------------------------
// Hedge lifecycle against a live protocol stack

struct SchedRig {
  std::optional<Cluster> cluster;
  PfsClient* client = nullptr;
  net::ClientNic* nic = nullptr;

  void build(ClientSchedConfig sched_cfg, PfsClientConfig pfs_cfg = {}) {
    ExperimentConfig cfg = test::cluster_config();
    cfg.client.sched = sched_cfg;
    cfg.client.pfs = pfs_cfg;
    cluster.emplace(cfg);
    client = &cluster->client(0).pfs();
    nic = &cluster->client(0).nic();
  }

  // One full-stripe read to put a warm, healthy estimate on every server.
  void warm_estimator() {
    std::optional<ReadResult> r;
    client->read(1, std::nullopt, 0, 256ull << 10,
                 [&](const ReadResult& res) { r = res; });
    cluster->sim().run();
    test::expect_drained(*client);
    ASSERT_TRUE(r.has_value());
    ASSERT_FALSE(r->failed);
    for (u64 srv = 0; srv < 4; ++srv)
      ASSERT_TRUE(client->scheduler()->has_estimate(srv));
  }
};

struct SchedFixture : ::testing::Test, SchedRig {};

TEST_F(SchedFixture, HedgeWinsAgainstBlackHoledServer) {
  ClientSchedConfig sc;
  sc.policy = ClientSchedPolicy::kStragglerAware;
  sc.min_samples = 1;
  sc.hedge_quantile = 3.0;
  PfsClientConfig pc;
  pc.retransmit_timeout = Time::ms(100);  // far beyond the hedge deadline
  build(sc, pc);
  warm_estimator();

  // Server 0 dies silently: its requests vanish, no reply ever comes. The
  // estimator still holds a healthy (warm) estimate for it, so the next
  // strip goes to the primary — only the hedge timer can rescue it.
  cluster->network().set_receiver(cluster->server_node(0),
                                  [](net::Packet) {});

  std::optional<ReadResult> r;
  client->read(1, std::nullopt, 0, 64ull << 10,  // one strip, on server 0
               [&](const ReadResult& res) { r = res; });
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->failed);
  EXPECT_EQ(client->stats().hedges_issued, 1u);
  EXPECT_EQ(client->stats().hedges_won, 1u);
  EXPECT_EQ(client->stats().hedges_wasted, 0u);
  EXPECT_EQ(client->stats().retransmits, 0u);  // hedge beat the RTO
  // The read completed roughly a hedge deadline after issue, not an RTO.
  EXPECT_LT(r->completed_at - r->issued_at, Time::ms(100));
}

TEST_F(SchedFixture, HedgeLosesCleanlyWhenBothServersReply) {
  // A quantile far below 1 makes the hedge deadline land well before any
  // real reply: both copies race, one wins, the loser's reply must be
  // deduplicated — never fatal.
  ClientSchedConfig sc;
  sc.policy = ClientSchedPolicy::kStragglerAware;
  sc.min_samples = 1;
  sc.hedge_quantile = 0.01;
  build(sc);
  warm_estimator();

  std::optional<ReadResult> r;
  client->read(1, std::nullopt, 0, 64ull << 10,
               [&](const ReadResult& res) { r = res; });
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->failed);
  EXPECT_EQ(client->stats().hedges_issued, 1u);
  EXPECT_EQ(client->stats().hedges_won + client->stats().hedges_wasted, 1u);
  // The losing copy's reply arrived after the strip was satisfied and was
  // deduplicated, not fatal.
  EXPECT_GE(client->stats().duplicate_strips, 1u);
  EXPECT_EQ(client->stats().reads_completed, 2u);  // warmup + this
}

// Regression: a duplicate reply for a strip that a hedge already won must
// take the dedup path, not double-erase the pending entry or double-free
// the pooled control block (either aborts under SAISIM_CHECK).
TEST_F(SchedFixture, DuplicateReplyAfterHedgeWonIsDeduped) {
  ClientSchedConfig sc;
  sc.policy = ClientSchedPolicy::kStragglerAware;
  sc.min_samples = 1;
  sc.hedge_quantile = 3.0;
  PfsClientConfig pc;
  pc.retransmit_timeout = Time::ms(100);
  build(sc, pc);
  warm_estimator();
  cluster->network().set_receiver(cluster->server_node(0),
                                  [](net::Packet) {});

  std::optional<ReadResult> r;
  const RequestId id =
      client->read(1, std::nullopt, 0, 64ull << 10,
                   [&](const ReadResult& res) { r = res; });
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(client->stats().hedges_won, 1u);

  // Now the black-holed primary "wakes up" and its original reply limps
  // in — after the hedge won and the request record was torn down.
  const u64 dups_before = client->stats().duplicate_strips;
  net::Packet stale;
  stale.kind = net::PacketKind::kPfsData;
  stale.src = cluster->server_node(0);
  stale.dst = nic->node();
  stale.request = id;
  stale.strip_index = 0;
  stale.payload_bytes = 64ull << 10;
  cluster->network().send(std::move(stale));
  cluster->sim().run();  // double-erase or handle leak would abort here
  test::expect_drained(*client);
  EXPECT_EQ(client->stats().duplicate_strips, dups_before + 1);
  EXPECT_EQ(client->stats().reads_completed, 2u);

  // The client remains fully serviceable afterwards.
  std::optional<ReadResult> r2;
  client->read(1, std::nullopt, 64ull << 10, 64ull << 10,
               [&](const ReadResult& res) { r2 = res; });
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(r2.has_value());
  EXPECT_FALSE(r2->failed);
}

TEST_F(SchedFixture, RedirectRoutesAroundDetectedStraggler) {
  ClientSchedConfig sc;
  sc.policy = ClientSchedPolicy::kStragglerAware;
  sc.min_samples = 1;
  sc.hedge_quantile = 0.0;  // isolate the redirect mechanism
  sc.slow_threshold = 3.0;
  build(sc);
  warm_estimator();

  // Poison server 0's estimate far past the slow threshold, as a long
  // degradation window would have.
  auto* sched = const_cast<StragglerScheduler*>(client->scheduler());
  for (int i = 0; i < 8; ++i) sched->record_rtt(0, Time::ms(50));
  ASSERT_TRUE(sched->is_slow(0));

  std::optional<ReadResult> r;
  client->read(1, std::nullopt, 0, 256ull << 10,
               [&](const ReadResult& res) { r = res; });
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->failed);
  // The strip laid out on server 0 went to server 1 instead.
  EXPECT_EQ(sched->stats().redirected_strips, 1u);
  EXPECT_EQ(client->stats().hedges_issued, 0u);
}

// Write data always lands on its owner, but each ack still times its
// strip: samples from writes warm the read dispatch (DESIGN.md §16).
TEST_F(SchedFixture, WriteAcksFeedTheEstimator) {
  ClientSchedConfig sc;
  sc.policy = ClientSchedPolicy::kStragglerAware;
  sc.min_samples = 1;
  build(sc);

  std::optional<ReadResult> r;
  client->write(1, std::nullopt, 0, client->allocate_buffer(256ull << 10),
                [&](const ReadResult& res) { r = res; });  // one full stripe
  cluster->sim().run();
  test::expect_drained(*client);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->failed);
  EXPECT_EQ(r->strips, 4u);
  for (u64 srv = 0; srv < 4; ++srv)
    EXPECT_TRUE(client->scheduler()->has_estimate(srv)) << "server " << srv;
  EXPECT_EQ(client->stats().hedges_issued, 0u);
  EXPECT_EQ(client->scheduler()->stats().redirected_strips, 0u);
}

// ---------------------------------------------------------------------------
// Determinism bars

void hex_u64(std::string& out, u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  out += buf;
  out += '.';
}

void hex_f64(std::string& out, double v) {
  hex_u64(out, std::bit_cast<u64>(v));
}

std::string metrics_fingerprint(const RunMetrics& m) {
  std::string fp;
  hex_f64(fp, m.bandwidth_mbps);
  hex_f64(fp, m.cpu_utilization);
  hex_f64(fp, m.mean_read_latency_us);
  hex_u64(fp, m.total_bytes);
  hex_u64(fp, static_cast<u64>(m.elapsed.picoseconds()));
  hex_u64(fp, m.interrupts);
  hex_u64(fp, m.retransmits);
  hex_u64(fp, m.duplicate_strips);
  hex_u64(fp, m.p99_read_latency_us);
  hex_u64(fp, m.hedges_issued);
  hex_u64(fp, m.hedges_won);
  hex_u64(fp, m.hedges_wasted);
  for (double b : m.per_client_bandwidth_mbps) hex_f64(fp, b);
  return fp;
}

/// Scheduler + hedging + a hard straggler. straggler_delay is the one
/// injector knob that draws no RNG, so the run must be shard-invariant.
ExperimentConfig straggler_experiment() {
  ExperimentConfig cfg;
  cfg.num_servers = 4;
  cfg.procs_per_client = 2;
  cfg.ior.transfer_size = 512ull << 10;
  cfg.ior.total_bytes = 4ull << 20;
  cfg.client.pfs.retransmit_timeout = Time::ms(50);
  cfg.client.sched.policy = ClientSchedPolicy::kStragglerAware;
  cfg.client.sched.min_samples = 2;
  // Deadline below the typical RTT so hedges demonstrably fire: the point
  // here is determinism with the cancel/dedup machinery fully exercised.
  cfg.client.sched.hedge_quantile = 0.5;
  cfg.fault.straggler_node = 0;
  cfg.fault.straggler_delay = Time::ms(2);
  return cfg;
}

TEST(StragglerSchedDeterminism, ShardCountsOneTwoFourBitIdentical) {
  ExperimentConfig cfg = straggler_experiment();
  const RunMetrics m1 = run_experiment(cfg);
  // The mechanism under test actually engaged.
  EXPECT_GT(m1.hedges_issued, 0u);
  const std::string fp1 = metrics_fingerprint(m1);
  cfg.sim.shards = 2;
  EXPECT_EQ(metrics_fingerprint(run_experiment(cfg)), fp1);
  cfg.sim.shards = 4;
  EXPECT_EQ(metrics_fingerprint(run_experiment(cfg)), fp1);
}

TEST(StragglerSchedDeterminism, SweepThreads1v4BitIdentical) {
  sweep::SweepSpec spec("sched", straggler_experiment());
  spec.axis("policy", std::vector<int>{0, 1},
            [](int p) { return std::string(kClientSchedPolicyNames[p]); },
            [](ExperimentConfig& c, int p) {
              c.client.sched.policy = static_cast<ClientSchedPolicy>(p);
            })
      .axis("straggler_ms", std::vector<int>{0, 2},
            [](int ms) { return std::to_string(ms); },
            [](ExperimentConfig& c, int ms) {
              c.fault.straggler_delay = Time::ms(ms);
            });
  sweep::SweepRunner serial(sweep::RunnerOptions{.threads = 1,
                                                 .progress = false});
  sweep::SweepRunner parallel(sweep::RunnerOptions{.threads = 4,
                                                   .progress = false});
  const sweep::SweepResult a = serial.run(spec);
  const sweep::SweepResult b = parallel.run(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 4u);
  for (u64 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points[i].labels, b.points[i].labels);
    EXPECT_EQ(metrics_fingerprint(a.metrics[i]),
              metrics_fingerprint(b.metrics[i]));
  }
}

}  // namespace
}  // namespace saisim::pfs
