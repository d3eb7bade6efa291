// Client-side straggler-aware strip dispatch (DESIGN.md §16).
//
// bench_fault's verdict on PR 5 was blunt: a single slow server stretches
// the p99 read tail of *every* interrupt-placement policy equally, because
// a striped read is only as fast as its slowest strip. "Client-side
// Straggler-Aware I/O Scheduler for Object-based Parallel File Systems"
// (arXiv 1805.06156) locates the fix in the client: watch per-server
// responsiveness and schedule around the laggard. This header is that
// watcher plus the dispatch decisions; PfsClient wires it into the strip
// issue/completion paths.
//
// Three mechanisms, all deterministic (no RNG draws, ever):
//
//   * EWMA estimator — one exponentially weighted moving average of strip
//     round-trip latency per server, fed by every strip reply and write
//     ack on PfsClient's one request path. A server is "slow" once its
//     estimate exceeds slow_threshold x the fleet's fastest estimate.
//   * redirect-with-probe — strips whose primary server is slow are
//     redirected to a rotating healthy replica (I/O servers serve any
//     offset, so any server can stand in; rotation spreads the displaced
//     load instead of herding it onto one neighbor, and servers already
//     carrying one of the same read's strips are held out so the redirect
//     does not serialize the read behind a different bottleneck). Every
//     probe_interval-th such strip still goes to the primary so the
//     estimate keeps tracking it and recovery is observed when the
//     degradation window closes.
//   * hedged reads — PfsClient arms a per-strip timer at hedge_quantile x
//     the target's expected latency; if the reply has not landed by then a
//     duplicate request goes out on the other path and the loser is
//     cancelled/deduped (EventQueue's O(1) cancel keeps the timers cheap).
//
// Everything is off by default: policy = fifo means PfsClient never
// constructs a StragglerScheduler, never allocates strip-control blocks,
// and never arms a hedge timer — the default event sequence (and with it
// every golden fingerprint) is byte-identical to the pre-scheduler client.
#pragma once

#include <vector>

#include "util/reflect.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace saisim::pfs {

enum class ClientSchedPolicy : u8 {
  kFifo = 0,        // issue strips in span order, primary server only
  kStragglerAware,  // EWMA estimator + redirect + optional hedging
};
inline constexpr const char* kClientSchedPolicyNames[] = {"fifo",
                                                          "straggler_aware"};
inline constexpr i64 kNumClientSchedPolicies = 2;

struct ClientSchedConfig {
  ClientSchedPolicy policy = ClientSchedPolicy::kFifo;
  /// Weight of the newest strip RTT sample: est += alpha * (sample - est).
  /// Higher adapts faster but chases transients.
  double ewma_alpha = 0.25;
  /// A server is slow when its estimate exceeds this multiple of the
  /// fleet's fastest estimate.
  double slow_threshold = 3.0;
  /// Hedge a strip after hedge_quantile x its target's expected latency
  /// with no reply (0 disables hedging; only active under
  /// straggler_aware).
  double hedge_quantile = 3.0;
  /// Samples a server must contribute before its estimate participates in
  /// slow detection or hedge deadlines (warmup guard).
  int min_samples = 4;
  /// Every probe_interval-th strip whose primary is slow is sent to the
  /// primary anyway, so the estimator observes recovery.
  int probe_interval = 8;
};

template <class V>
void describe(V& v, ClientSchedConfig& c) {
  namespace r = util::reflect;
  v.field("policy", c.policy,
          r::EnumNames{kClientSchedPolicyNames, kNumClientSchedPolicies});
  v.field("ewma_alpha", c.ewma_alpha, r::in_frange(1e-6, 1.0));
  v.field("slow_threshold", c.slow_threshold, r::in_frange(1.0, 1e6));
  v.field("hedge_quantile", c.hedge_quantile, r::non_negative());
  v.field("min_samples", c.min_samples, r::in_range(1, 1 << 20));
  v.field("probe_interval", c.probe_interval, r::in_range(1, 1 << 20));
}

/// Whether the dispatch stage is active at all. fifo = the scheduler is
/// never constructed and the client's hot path is untouched.
inline bool client_sched_enabled(const ClientSchedConfig& c) {
  return c.policy != ClientSchedPolicy::kFifo;
}

struct ClientSchedStats {
  /// Strips sent to the replica path because their primary was slow.
  u64 redirected_strips = 0;
  /// Slow-primary strips deliberately sent to the primary anyway (the
  /// every-probe_interval-th estimator refresh).
  u64 probe_strips = 0;
};

/// Counter rows, published beside the client's own under `pfs.`.
template <class V>
void describe(V& v, ClientSchedStats& s) {
  v.field("sched_redirects", s.redirected_strips);
  v.field("sched_probes", s.probe_strips);
}

/// Per-server responsiveness estimator + dispatch decisions. Owned by one
/// PfsClient; all methods are O(num_servers) worst case and draw no RNG,
/// so a straggler_aware run replays bit-identically at any sim.shards and
/// sweep --threads.
class StragglerScheduler {
 public:
  StragglerScheduler(const ClientSchedConfig& cfg, u64 num_servers)
      : cfg_(cfg), servers_(num_servers), peer_epoch_(num_servers, ~0ull) {}

  /// Feed one strip round-trip sample for `server` (µs may be fractional —
  /// callers pass picosecond-derived values for precision).
  void record_rtt(u64 server, Time rtt) {
    Est& e = servers_[server];
    const double us = static_cast<double>(rtt.picoseconds()) / 1e6;
    e.ewma_us = e.samples == 0 ? us : e.ewma_us + cfg_.ewma_alpha * (us - e.ewma_us);
    ++e.samples;
    fleet_min_stale_ = true;
  }

  /// Whether `server` has contributed enough samples for its estimate to
  /// participate in slow detection / hedge deadlines.
  bool has_estimate(u64 server) const {
    return servers_[server].samples >= static_cast<u64>(cfg_.min_samples);
  }

  double ewma_us(u64 server) const { return servers_[server].ewma_us; }

  /// Expected strip latency of `server`, or zero while warming up.
  Time expected_latency(u64 server) const {
    if (!has_estimate(server)) return Time::zero();
    return Time::ps(static_cast<i64>(servers_[server].ewma_us * 1e6));
  }

  /// Slow = estimate above slow_threshold x the fastest warm estimate. A
  /// lone warm server is never slow (it *is* the fleet minimum).
  bool is_slow(u64 server) const { return is_slow(server, fleet_min_us()); }

  /// Begin a new striped read: subsequent note_peer() calls mark servers
  /// already serving one of the read's own strips, and choose_target
  /// prefers replicas outside that set — redirecting a strip onto a peer
  /// just serializes the read behind a different server.
  void begin_read() { ++epoch_; }
  void note_peer(u64 server) { peer_epoch_[server] = epoch_; }
  bool is_peer(u64 server) const { return peer_epoch_[server] == epoch_; }

  /// Dispatch decision for a strip whose layout places it on `primary`:
  /// healthy primaries keep their strip; slow ones lose it to a rotating
  /// healthy non-peer replica except for the deterministic
  /// every-probe_interval-th probe. Rotation (rather than always
  /// (primary + 1) % N) spreads the displaced load across the fleet.
  u64 choose_target(u64 primary) {
    if (servers_.size() < 2) return primary;
    // Estimates change only in record_rtt, so one fleet scan serves every
    // dispatch (and every candidate) until the next sample.
    const double fleet_min = fleet_min_us();
    if (!is_slow(primary, fleet_min)) return primary;
    Est& e = servers_[primary];
    if (++e.slow_dispatches % static_cast<u64>(cfg_.probe_interval) == 0) {
      ++stats_.probe_strips;
      return primary;
    }
    const u64 n = servers_.size();
    // The candidates are the other servers in the order primary + 1 + j,
    // j = rr_, rr_ + 1, ... mod n - 1; `j` and `cand` step together, each
    // wrapping by a compare. Pass 0 holds out the read's peer servers;
    // pass 1 drops that preference (a full-stripe read has no outside
    // server to lean on).
    const double primary_us = e.ewma_us;
    const u64 start = primary + 1 + rr_;
    for (int pass = 0; pass < 2; ++pass) {
      u64 j = rr_;
      u64 cand = start < n ? start : start - n;
      for (u64 i = 0; i < n - 1; ++i) {
        // Never redirect onto a path currently judged even slower, nor
        // (in pass 0) onto a peer.
        const bool worse =
            is_slow(cand, fleet_min) && ewma_us(cand) >= primary_us;
        if (!worse && !(pass == 0 && is_peer(cand))) {
          rr_ = j + 1 == n - 1 ? 0 : j + 1;
          ++stats_.redirected_strips;
          return cand;
        }
        if (++j == n - 1) {
          j = 0;
          cand = primary + 1 == n ? 0 : primary + 1;
        } else if (++cand == n) {
          cand = 0;
        }
      }
    }
    return primary;  // every replica is worse; keep the layout's choice
  }

  /// The alternate path a hedge for a strip dispatched to `target` should
  /// take: the primary's replica, or back to the primary if the first copy
  /// was already redirected.
  u64 hedge_target(u64 primary, u64 target) const {
    if (servers_.size() < 2) return primary;
    return target == primary ? (primary + 1) % servers_.size() : primary;
  }

  /// Delay before hedging a strip sent to `target`; zero = never hedge
  /// (hedging off, or the estimate is still warming up).
  Time hedge_delay(u64 target) const {
    if (cfg_.hedge_quantile <= 0.0 || !has_estimate(target)) {
      return Time::zero();
    }
    return Time::ps(static_cast<i64>(servers_[target].ewma_us * 1e6 *
                                     cfg_.hedge_quantile));
  }

  const ClientSchedStats& stats() const { return stats_; }

 private:
  struct Est {
    double ewma_us = 0.0;
    u64 samples = 0;
    /// Strips dispatched while this server was judged slow (probe cadence).
    u64 slow_dispatches = 0;
  };

  bool is_slow(u64 server, double fleet_min) const {
    if (!has_estimate(server)) return false;
    return servers_[server].ewma_us > cfg_.slow_threshold * fleet_min;
  }

  /// The fastest warm estimate (0 while none is warm), rescanned only
  /// after a record_rtt.
  double fleet_min_us() const {
    if (!fleet_min_stale_) return fleet_min_;
    double best = -1.0;
    for (u64 s = 0; s < servers_.size(); ++s) {
      if (!has_estimate(s)) continue;
      if (best < 0.0 || servers_[s].ewma_us < best) best = servers_[s].ewma_us;
    }
    fleet_min_ = best < 0.0 ? 0.0 : best;
    fleet_min_stale_ = false;
    return fleet_min_;
  }

  ClientSchedConfig cfg_;
  std::vector<Est> servers_;
  ClientSchedStats stats_;
  /// fleet_min_us() as of the last sample, and whether a sample came since.
  mutable double fleet_min_ = 0.0;
  mutable bool fleet_min_stale_ = true;
  /// Redirect rotation cursor (choose_target), always < n - 1;
  /// deterministic, no RNG.
  u64 rr_ = 0;
  /// Peer-server marks for the read currently being dispatched:
  /// peer_epoch_[s] == epoch_ means s serves one of this read's strips.
  u64 epoch_ = 0;
  std::vector<u64> peer_epoch_;
};

}  // namespace saisim::pfs
