// Deterministic network fault injection.
//
// Real fabrics lose, duplicate, delay, and reorder packets; per-server
// stragglers dominate parallel-read tails (Tavakoli et al.), and interrupt
// steering interacts with reordering ("Why Does Flow Director Cause Packet
// Reordering?"). The simulator's links are perfectly lossless, so without
// this layer the PFS retransmit/RTO machinery is nearly dead code — and the
// bugs hiding in it (write hangs, retry-exhaustion crashes) never surface.
//
// The injector sits in front of `Network::send` and judges every packet
// with its *own* seeded xoshiro stream (never the simulation RNG, so the
// model's random draws are unperturbed):
//
//   * loss_rate        — per-packet drop probability;
//   * duplicate_rate   — per-packet duplication (a second, independently
//                        jittered copy: late duplicates exercise dedup);
//   * max_jitter       — uniform extra delay in [0, max_jitter) before the
//                        packet enters its uplink, so back-to-back packets
//                        reorder;
//   * straggler_node / straggler_delay
//                      — every packet through that node (sent by it or
//                        addressed to it) is slowed: one degraded I/O
//                        server dragging the read tail;
//   * degrade_start/end/factor
//                      — a time window during which every packet pays
//                        (factor - 1) x its destination-downlink
//                        serialization again (effective bandwidth / factor).
//
// Determinism: one injector per simulation shard, each with a private RNG
// (seeded via shard_fault_seed), judging that shard's sends in shard-local
// execution order — the same (config, seed, sim.shards) replays
// bit-identically at any sweep --threads. With every knob at its default
// the injector reports !enabled() and the Network never consults it: the
// lossless path is byte-for-byte the pre-injector code (golden-pinned).
#pragma once

#include "net/packet.hpp"
#include "util/reflect.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace saisim::net {

struct FaultConfig {
  /// Per-packet drop probability (both directions; requests and replies).
  double loss_rate = 0.0;
  /// Per-packet probability of delivering a second copy.
  double duplicate_rate = 0.0;
  /// Uniform extra per-packet delay in [0, max_jitter) — reordering.
  Time max_jitter = Time::zero();
  /// Straggling node (-1 = none). Index into the experiment topology: I/O
  /// servers come first, so 0 degrades server 0.
  i64 straggler_node = -1;
  /// Extra delay added to every packet the straggler sends or receives.
  Time straggler_delay = Time::zero();
  /// Link degradation window [degrade_start, degrade_end): packets sent in
  /// it pay (degrade_factor - 1) x their downlink serialization again.
  Time degrade_start = Time::zero();
  Time degrade_end = Time::zero();
  double degrade_factor = 1.0;
  /// Seed of the injector's private RNG stream (independent of the
  /// simulation seed, so a fault sweep holds the workload's draws fixed).
  u64 seed = 0x5EEDFA17;
};

template <class V>
void describe(V& v, FaultConfig& c) {
  namespace r = util::reflect;
  v.field("loss_rate", c.loss_rate, r::unit_interval());
  v.field("duplicate_rate", c.duplicate_rate, r::unit_interval());
  v.field("max_jitter", c.max_jitter, r::non_negative());
  v.field("straggler_node", c.straggler_node, r::at_least(-1));
  v.field("straggler_delay", c.straggler_delay, r::non_negative());
  v.field("degrade_start", c.degrade_start, r::non_negative());
  v.field("degrade_end", c.degrade_end, r::non_negative());
  v.field("degrade_factor", c.degrade_factor, r::in_frange(1.0, 1e6));
  v.field("seed", c.seed, r::non_negative());
  v.invariant(c.degrade_end >= c.degrade_start,
              "fault degrade window must have degrade_end >= degrade_start");
}

/// Whether any fault knob is armed. A disabled injector is never consulted
/// on the send path (the Network holds a null pointer instead).
inline bool fault_enabled(const FaultConfig& c) {
  return c.loss_rate > 0.0 || c.duplicate_rate > 0.0 ||
         (c.max_jitter > Time::zero()) ||
         (c.straggler_node >= 0 && c.straggler_delay > Time::zero()) ||
         (c.degrade_end > c.degrade_start && c.degrade_factor > 1.0);
}

/// Seed of shard `rank`'s private injector stream. Sharded runs give each
/// shard its own FaultInjector judging that shard's sends in shard-local
/// order (the global send interleaving across shards is timing-dependent,
/// so one shared stream could not replay): rank 0 keeps the configured
/// seed so a 1-shard run is bit-identical to the single-injector fabric,
/// and higher ranks decorrelate by the golden-ratio increment, matching
/// sim::Engine::shard_seed.
inline u64 shard_fault_seed(u64 seed, int rank) {
  constexpr u64 kGoldenGamma = u64{0x9E3779B97F4A7C15};
  return rank == 0 ? seed : seed ^ (static_cast<u64>(rank) * kGoldenGamma);
}

struct FaultStats {
  u64 packets_dropped = 0;
  u64 packets_duplicated = 0;
  u64 packets_jittered = 0;
  u64 straggler_delays = 0;
  /// Per-leg breakdown of straggler_delays: packets the straggler sent vs
  /// packets addressed to it (the leg the pre-fix injector missed).
  u64 straggler_tx_delays = 0;
  u64 straggler_rx_delays = 0;
  u64 degraded_packets = 0;
};

/// Counter rows (`fault.*`), summed over the per-shard injectors.
template <class V>
void describe(V& v, FaultStats& s) {
  v.field("packets_dropped", s.packets_dropped);
  v.field("packets_duplicated", s.packets_duplicated);
  v.field("packets_jittered", s.packets_jittered);
  v.field("straggler_delays", s.straggler_delays);
  v.field("straggler_tx_delays", s.straggler_tx_delays);
  v.field("straggler_rx_delays", s.straggler_rx_delays);
  v.field("degraded_packets", s.degraded_packets);
}

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

  const FaultStats& stats() const { return stats_; }

  /// Per-packet fate. RNG draws happen in a fixed order (loss, duplicate,
  /// jitter, duplicate's jitter) and only for armed knobs, so a given
  /// (config, seed) judges an identical packet sequence identically.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    Time delay = Time::zero();      // extra delay before the uplink
    Time dup_delay = Time::zero();  // ditto for the duplicate copy
  };

  /// `downlink_serialization` is the destination-port serialization time of
  /// this packet (the degradation window stretches it by factor - 1).
  Verdict judge(const Packet& p, Time now, Time downlink_serialization) {
    Verdict v;
    if (cfg_.loss_rate > 0.0 && rng_.chance(cfg_.loss_rate)) {
      v.drop = true;
      ++stats_.packets_dropped;
      return v;
    }
    if (cfg_.duplicate_rate > 0.0 && rng_.chance(cfg_.duplicate_rate)) {
      v.duplicate = true;
      ++stats_.packets_duplicated;
    }
    v.delay = jitter();
    if (v.delay > Time::zero()) ++stats_.packets_jittered;
    if (v.duplicate) v.dup_delay = jitter();
    Time shared = Time::zero();
    if (cfg_.straggler_node >= 0) {
      const NodeId straggler = static_cast<NodeId>(cfg_.straggler_node);
      // Both legs pay: a slow server is slow to *receive* requests as well
      // as to send replies (one-directional matching made the effective
      // penalty half the knob).
      const bool tx_leg = p.src == straggler;
      const bool rx_leg = p.dst == straggler;
      if (tx_leg || rx_leg) {
        shared += cfg_.straggler_delay;
        ++stats_.straggler_delays;
        if (tx_leg) ++stats_.straggler_tx_delays;
        if (rx_leg) ++stats_.straggler_rx_delays;
      }
    }
    if (cfg_.degrade_factor > 1.0 && now >= cfg_.degrade_start &&
        now < cfg_.degrade_end) {
      shared += Time::ps(static_cast<i64>(
          static_cast<double>(downlink_serialization.picoseconds()) *
          (cfg_.degrade_factor - 1.0)));
      ++stats_.degraded_packets;
    }
    v.delay += shared;
    v.dup_delay += shared;
    return v;
  }

 private:
  Time jitter() {
    if (cfg_.max_jitter <= Time::zero()) return Time::zero();
    return Time::ps(static_cast<i64>(
        rng_.below(static_cast<u64>(cfg_.max_jitter.picoseconds()))));
  }

  FaultConfig cfg_;
  Rng rng_;
  FaultStats stats_;
};

}  // namespace saisim::net
