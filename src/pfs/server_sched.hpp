// The I/O server's CPU/task scheduler: one modeled server core with a run
// queue. Server-side work — request parse (including the server's own NIC
// interrupt handling), cache resolution, reply build, flush bursts — is
// submitted as discrete tasks; the discipline decides what runs next when
// the core frees up. FIFO is strict arrival order; priority runs foreground
// (request/reply) work ahead of background flushes, so a flush storm delays
// acks under FIFO but only steals idle cycles under priority.
//
// Disabled (the default) there is no modeled core: the IoServer's CPU
// stage charges request_service inline with no queueing, and irq_cost,
// reply_cost and flush_cpu_cost are not charged at all.
#pragma once

#include <algorithm>
#include <deque>

#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "util/reflect.hpp"
#include "util/small_function.hpp"

namespace saisim::pfs {

enum class SchedDiscipline : u8 {
  kFifo = 0,
  kPriority,
};
inline constexpr const char* kSchedDisciplineNames[] = {"fifo", "priority"};
inline constexpr i64 kNumSchedDisciplines = 2;

struct ServerSchedConfig {
  /// Model server CPU contention. Off by default: request_service is
  /// charged inline with no queueing.
  bool enabled = false;
  SchedDiscipline discipline = SchedDiscipline::kFifo;
  /// Cost of fielding one inbound packet (the server's NIC interrupt plus
  /// request parse), charged before the request reaches the cache.
  Time irq_cost = Time::us(3);
  /// Cost of building one reply/ack message once its data is ready.
  Time reply_cost = Time::us(5);
  /// CPU side of one background flush burst (issue + completion handling).
  Time flush_cpu_cost = Time::us(10);
};

template <class V>
void describe(V& v, ServerSchedConfig& c) {
  namespace r = util::reflect;
  v.field("enabled", c.enabled);
  v.field("discipline", c.discipline,
          r::EnumNames{kSchedDisciplineNames, kNumSchedDisciplines});
  v.field("irq_cost", c.irq_cost, r::non_negative());
  v.field("reply_cost", c.reply_cost, r::non_negative());
  v.field("flush_cpu_cost", c.flush_cpu_cost, r::non_negative());
}

class ServerCpu {
 public:
  enum class Prio : u8 {
    kForeground = 0,  // request parse, cache resolution, reply build
    kBackground,      // flush daemon work
  };

  struct Stats {
    u64 tasks = 0;
    /// Run-queue depth (queued + running) observed at each submit; divide
    /// by `tasks` for the mean depth the per-server table reports.
    u64 queue_depth_sum = 0;
    u64 max_queue_depth = 0;
    i64 queue_wait_ps = 0;  // total time tasks sat queued before running
    i64 busy_ps = 0;        // total CPU time executed
  };

  /// A task's completion. The inline buffer fits the I/O server's request
  /// continuation — `this`, the submit time and a whole net::Packet — so
  /// it needs no heap box.
  static constexpr u64 kDoneInlineBytes = sizeof(net::Packet) + 2 * sizeof(u64);
  using Done = SmallFunction<void(Time), kDoneInlineBytes>;

  ServerCpu(sim::Simulation& simulation, SchedDiscipline discipline)
      : sim_(simulation), discipline_(discipline) {}

  const Stats& stats() const { return stats_; }

  /// Instantaneous run-queue depth (queued + running) — the gauge the
  /// telemetry sampler reads.
  u64 depth() const { return queued() + (running_ ? 1 : 0); }

  /// Enqueue `cost` of CPU work; `done(at)` fires inside the completion
  /// event (sim().now() == at).
  void submit(Prio prio, Time cost, Done done) {
    ++stats_.tasks;
    const u64 depth = queued() + (running_ ? 1 : 0);
    stats_.queue_depth_sum += depth;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
    Task t{cost, std::move(done), sim_.now(), seq_++};
    if (!running_) {
      running_ = true;
      start(std::move(t));
    } else {
      queue_[static_cast<u64>(prio)].push_back(std::move(t));
    }
  }

 private:
  struct Task {
    Time cost;
    Done done;
    Time submitted;
    u64 seq = 0;
  };

  u64 queued() const { return queue_[0].size() + queue_[1].size(); }

  void start(Task t) {
    stats_.queue_wait_ps += (sim_.now() - t.submitted).picoseconds();
    stats_.busy_ps += t.cost.picoseconds();
    // The running task's completion waits in a member, so the event
    // captures only `this` and stays inline in the event queue's slot.
    running_done_ = std::move(t.done);
    sim_.after(t.cost, [this] {
      // A completion that submits more work only queues it (running_ is
      // still set), so running_done_ is not replaced while it runs.
      if (running_done_) running_done_(sim_.now());
      running_done_.reset();
      dispatch_next();
    });
  }

  void dispatch_next() {
    std::deque<Task>& fg = queue_[0];
    std::deque<Task>& bg = queue_[1];
    std::deque<Task>* next = nullptr;
    if (discipline_ == SchedDiscipline::kPriority) {
      next = !fg.empty() ? &fg : (!bg.empty() ? &bg : nullptr);
    } else {  // FIFO across both priorities, by submission sequence
      if (!fg.empty() && !bg.empty()) {
        next = fg.front().seq < bg.front().seq ? &fg : &bg;
      } else {
        next = !fg.empty() ? &fg : (!bg.empty() ? &bg : nullptr);
      }
    }
    if (next == nullptr) {
      running_ = false;
      return;
    }
    Task t = std::move(next->front());
    next->pop_front();
    start(std::move(t));
  }

  sim::Simulation& sim_;
  SchedDiscipline discipline_;
  std::deque<Task> queue_[2];
  Done running_done_;
  bool running_ = false;
  u64 seq_ = 0;
  Stats stats_;
};

/// Counter rows, published beside the server's own under `server.` (and
/// `server<i>.`). The run-wide max_queue_depth is the max over servers.
template <class V>
void describe(V& v, ServerCpu::Stats& s) {
  v.field("sched_tasks", s.tasks);
  v.field("sched_queue_depth_sum", s.queue_depth_sum);
  v.maximum("sched_max_queue_depth", s.max_queue_depth);
  v.field("sched_queue_wait_ps", s.queue_wait_ps);
  v.field("sched_busy_ps", s.busy_ps);
}

}  // namespace saisim::pfs
