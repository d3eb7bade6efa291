// The sharded parallel DES engine: N node-partitioned Simulations advanced
// in conservative lookahead rounds.
//
// Model state is partitioned over shards; each shard owns a Simulation
// (its own event queue, clock, and RNG stream derived from the root seed).
// Synchronization is the classical conservative scheme: every cross-shard
// interaction carries at least `lookahead` of simulated latency (in this
// repo, the switch store-and-forward hop — the minimum cross-shard edge),
// so a round may safely execute every event strictly before
//
//   horizon = min(next event time over all shards) + lookahead
//
// in parallel: any message generated during the round takes effect at
// `src.now() + L >= horizon` and therefore cannot influence the round
// itself. Cross-shard sends go through `post()`, which appends to the
// sending shard's outbox; at the round boundary the coordinator merges all
// outboxes in the deterministic (effect_time, src_shard, sequence) order
// before scheduling them on their destination queues. Together with the
// per-queue (time, seq) tie-break this makes the execution order — and
// hence every metric — a pure function of (config, seed, shard count
// partition), independent of thread scheduling or of *which* thread runs a
// given window.
//
// Round machinery (PR 7): the mutex + two-condvar handshake is replaced by
// cache-line-padded per-shard epoch state. The coordinator publishes a
// shard's window by writing `horizon` and bumping the shard's `go` epoch
// (the release store that carries the horizon); the executor — the shard's
// worker, or the coordinator helping out — wins the window with one CAS on
// `claim` and announces completion on `done`, which the coordinator reads
// with acquires. Workers spin a bounded budget on their own line, then park
// on a per-shard mutex/condvar that exists only as the fallback; a
// Dekker-style seq_cst handshake (`parked` / `coord_waiting_`) keeps the
// park path free of lost wakeups. Rounds whose extra shards have no events
// below the horizon skip those shards entirely, and when no worker-side
// parallelism is available (a 1-CPU host, or only one shard active) the
// coordinator runs the active windows inline — same results by the
// thread-independence argument above, none of the handshake cost.
//
// Outboxes are retained-capacity SPSC rings (producer: the window's
// executor; consumer: the coordinator at the barrier) with a producer-local
// spill vector for overflow; the ring is regrown only at the barrier. The
// merge is per-shard sort (usually an is_sorted scan — posts are generated
// in clock order) + k-way selection merge; a round with no posts skips the
// merge entirely (fused rounds).
//
// With one shard the engine degenerates to the legacy serial kernel: no
// workers, no outboxes, the exact pre-shard run loop — byte-identical.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/spsc_ring.hpp"

namespace saisim::sim {

struct EngineOptions {
  enum class Threading {
    /// Workers when the host has >1 hardware thread, else inline.
    kAuto,
    /// Always spawn shard workers (tests exercising the barrier).
    kForceThreads,
    /// Never spawn workers; the coordinator runs every window.
    kInline,
  };
  Threading threading = Threading::kAuto;
  /// Barrier spin budget (iterations) before parking on the condvar.
  int spin_iterations = 4096;
  /// Initial per-shard SPSC outbox capacity (slots; grown at the barrier).
  u64 outbox_capacity = 256;
};

class Engine {
 public:
  /// Shard 0 seeds its RNG with `seed` itself (so a 1-shard engine is
  /// bit-identical to a bare Simulation(seed)); shard r>0 gets a stream
  /// decorrelated by the golden-ratio increment.
  static u64 shard_seed(u64 seed, int rank) {
    constexpr u64 kGoldenGamma = u64{0x9E3779B97F4A7C15};
    return rank == 0 ? seed : seed ^ (static_cast<u64>(rank) * kGoldenGamma);
  }

  Engine(u64 seed, int shards, Time lookahead, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Worker threads actually spawned (0 in inline mode and at 1 shard).
  int num_workers() const { return static_cast<int>(workers_.size()); }
  Simulation& shard(int rank) { return ctx(rank).sim; }

  /// Rank of the shard executing on the current thread: 0..N-1 inside a
  /// round, -1 outside (setup/teardown, which are single-threaded).
  static int current_rank() { return tl_rank_; }

  /// Install a tracer as shard `rank`'s sink for subsequent rounds (worker
  /// shards only; shard 0 runs on the caller's thread and inherits its
  /// ambient TraceScope). Pass nullptr to detach.
  void set_tracer(int rank, trace::Tracer* t) { ctx(rank).tracer = t; }

  /// Schedule `fn` on shard `dst` at absolute time `effect`, from shard
  /// `src`. Same-shard posts schedule directly (identical to sim.at).
  /// Cross-shard posts during a round must respect the conservative
  /// contract `effect >= src.now() + lookahead`; they are buffered in the
  /// source outbox and merged deterministically at the round boundary.
  void post(int src, int dst, Time effect, EventQueue::Callback fn);

  /// Advance all shards until `keep_going()` (evaluated on shard 0, the
  /// control shard, between that shard's events) turns false. Aborts via
  /// SAISIM_CHECK if every queue drains or the clock passes `deadline`
  /// first — the exact failure contract of the legacy serial loop. Returns
  /// shard 0's clock, which is the time of the event that satisfied the
  /// predicate (other shards may have conservatively run ahead, bounded by
  /// the last horizon).
  template <class Pred>
  Time run_while(Pred&& keep_going, Time deadline) {
    Simulation& s0 = shard(0);
    if (num_shards() == 1) {
      // The legacy serial kernel, verbatim.
      const RankScope scope(0);
      while (keep_going()) {
        SAISIM_CHECK_MSG(s0.step(),
                         "workload did not complete: event queue drained");
        SAISIM_CHECK_MSG(s0.now() <= deadline,
                         "workload did not complete within max_sim_time");
      }
      return s0.now();
    }
    for (;;) {
      if (!keep_going()) return s0.now();
      const Time t_min = min_next_event_time();
      SAISIM_CHECK_MSG(t_min != Time::max(),
                       "workload did not complete: event queue drained");
      SAISIM_CHECK_MSG(t_min <= deadline,
                       "workload did not complete within max_sim_time");
      const Time horizon = t_min + lookahead_;
      ++rounds_;
      // A shard whose next event is at or past the horizon has nothing to
      // execute this round and is skipped outright — no handshake, no
      // window call.
      const bool s0_active = s0.next_event_time() < horizon;
      collect_active(horizon);
      bool stopped = false;
      // Worker dispatch only buys anything when two or more shards have
      // work this round; otherwise the coordinator runs the lone window
      // inline (and in inline mode it runs them all, sequentially — the
      // bit-identical schedule, per the thread-independence contract).
      const bool dispatch =
          !workers_.empty() &&
          static_cast<int>(active_scratch_.size()) + (s0_active ? 1 : 0) > 1;
      if (dispatch) {
        for (const int r : active_scratch_) publish_round(r, horizon);
        if (s0_active) {
          const RankScope scope(0);
          stopped = !s0.run_window_while(horizon, keep_going);
          ++ctx(0).rounds;
        }
        // Help: claim any window its worker has not started yet.
        for (const int r : active_scratch_) try_claim_and_run(r);
        wait_for_round();
      } else {
        if (s0_active) {
          const RankScope scope(0);
          stopped = !s0.run_window_while(horizon, keep_going);
          ++ctx(0).rounds;
        }
        for (const int r : active_scratch_) run_window_inline(r, horizon);
      }
      merge_outboxes();
      if (stopped) return s0.now();
    }
  }

  /// Rounds executed so far (0 for the 1-shard serial path).
  u64 rounds() const { return rounds_; }
  /// Cross-shard messages merged at round boundaries so far.
  u64 cross_shard_posts() const { return cross_posts_; }
  /// Windows shard `rank` actually executed (it had events below the
  /// horizon); rounds() minus this is the shard's idle-round count.
  u64 shard_rounds(int rank) { return ctx(rank).rounds; }
  /// Wall-clock nanoseconds the coordinator spent waiting for shard
  /// `rank`'s window at round barriers (0 when windows run inline or the
  /// shard finished before the coordinator looked). Wall time: useful as a
  /// straggler diagnostic, never part of any simulated metric.
  u64 shard_sync_wait_ns(int rank) { return ctx(rank).sync_wait_ns; }

 private:
  /// One buffered cross-shard message. The merge sort key is
  /// (effect, src, seq): time first, then source shard rank, then the
  /// source's post sequence — total, deterministic, and independent of
  /// worker interleaving.
  struct Post {
    Time effect;
    int src;
    int dst;
    u64 seq;
    EventQueue::Callback fn;
  };

  struct ShardCtx {
    ShardCtx(u64 seed, u64 outbox_capacity)
        : sim(seed),
          outbox(std::make_unique<util::SpscRing<Post>>(outbox_capacity)) {}

    Simulation sim;
    // Outbox: the window's executor produces, the coordinator drains at the
    // barrier. The spill vector is producer-local overflow; the ring is
    // regrown (unique_ptr swap) only at the barrier quiescent point.
    std::unique_ptr<util::SpscRing<Post>> outbox;
    std::vector<Post> spill;
    std::vector<Post> merge_buf;  // coordinator-side drain + sort target
    u64 post_seq = 0;
    trace::Tracer* tracer = nullptr;
    u64 rounds = 0;        // written by the window's executor, barrier-synced
    u64 sync_wait_ns = 0;  // written by the coordinator only

    // Per-shard epoch barrier, on its own cache line. The coordinator is
    // the only writer of `go` (the epoch counter; its release store also
    // publishes `horizon`); executor candidates race one CAS on `claim`;
    // the winner runs the window and announces on `done`. `parked` is the
    // worker half of the Dekker handshake with Engine::coord_waiting_.
    alignas(64) std::atomic<u64> go{0};
    std::atomic<u64> claim{0};
    std::atomic<u64> done{0};
    std::atomic<bool> parked{false};
    Time horizon = Time::zero();
    alignas(64) std::mutex park_mutex;
    std::condition_variable park_cv;
  };

  class RankScope {
   public:
    explicit RankScope(int r) : prev_(tl_rank_) { tl_rank_ = r; }
    ~RankScope() { tl_rank_ = prev_; }
    RankScope(const RankScope&) = delete;
    RankScope& operator=(const RankScope&) = delete;

   private:
    int prev_;
  };

  ShardCtx& ctx(int rank) {
    SAISIM_CHECK(rank >= 0 && rank < num_shards());
    return *shards_[static_cast<u64>(rank)];
  }

  Time min_next_event_time();
  /// Fill active_scratch_ with the ranks >= 1 that have work below horizon.
  void collect_active(Time horizon);
  /// Publish (horizon, next epoch) to shard `rank` and wake it if parked.
  void publish_round(int rank, Time horizon);
  /// Run shard `rank`'s window on this thread, no handshake (inline mode).
  void run_window_inline(int rank, Time horizon);
  /// Claim shard `rank`'s published window if its worker has not; run it.
  void try_claim_and_run(int rank);
  /// Wait (spin, then park) until every published window announced done.
  void wait_for_round();
  void merge_outboxes();
  void worker_main(int rank);

  inline static thread_local int tl_rank_ = -1;

  Time lookahead_;
  int spin_iterations_;
  u64 outbox_capacity_;
  std::vector<std::unique_ptr<ShardCtx>> shards_;
  std::vector<int> active_scratch_;
  std::vector<std::vector<Post>*> merge_ptrs_;
  u64 rounds_ = 0;
  u64 cross_posts_ = 0;

  // Coordinator park state (the other half of the Dekker handshake): a
  // worker that finishes a window while coord_waiting_ is up takes the
  // mutex and signals. Workers park on their own shard's condvar instead,
  // so this pair is coordinator-only.
  std::atomic<bool> coord_waiting_{false};
  std::atomic<bool> quit_{false};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
};

}  // namespace saisim::sim
