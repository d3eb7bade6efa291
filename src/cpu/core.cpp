#include "cpu/core.hpp"

#include <algorithm>
#include <utility>

#include "trace/tracer.hpp"
#include "util/assert.hpp"

namespace saisim::cpu {

Core::Core(sim::Simulation& simulation, CoreId id, Frequency freq,
           Time user_quantum)
    : sim_(simulation), id_(id), freq_(freq), quantum_(user_quantum) {
  SAISIM_CHECK(user_quantum > Time::zero());
}

void Core::submit(WorkItem item) {
  SAISIM_CHECK(item.cost);
  const auto band = static_cast<u64>(item.prio);
  SAISIM_CHECK(band < kNumPriorities);
  queues_[band].push_back(Pending{std::move(item), Cycles::zero(), false});
  reschedule();
}

u64 Core::backlog() const {
  u64 n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

void Core::accrue(Time end) {
  const Time span = end - segment_start_;
  acct_.busy_total += span;
  acct_.busy_by_prio[static_cast<u64>(current_.item.prio)] += span;
}

void Core::reschedule() {
  // Highest-priority pending band.
  int best = -1;
  for (int b = 0; b < kNumPriorities; ++b) {
    if (!queues_[static_cast<u64>(b)].empty()) {
      best = b;
      break;
    }
  }

  if (running_) {
    if (best < 0 || best >= static_cast<int>(current_.item.prio)) {
      return;  // current work has priority; keep running
    }
    // Preempt: bank the cycles consumed so far and park the current item at
    // the front of its band.
    sim_.cancel(segment_event_);
    segment_event_.reset();
    const Time now = sim_.now();
    accrue(now);
    const Cycles consumed = freq_.cycles_in(now - segment_start_);
    const Cycles left{std::max<i64>(0, current_.remaining.count() - consumed.count())};
    Pending parked = std::move(current_);
    parked.remaining = left;
    queues_[static_cast<u64>(parked.item.prio)].push_front(std::move(parked));
    running_ = false;
    ++acct_.preemptions;
  }

  if (best < 0) return;
  auto& q = queues_[static_cast<u64>(best)];
  Pending next = std::move(q.front());
  q.pop_front();
  start(std::move(next.item), next.remaining, next.cost_evaluated);
}

void Core::start(WorkItem item, Cycles remaining, bool cost_evaluated) {
  SAISIM_CHECK(!running_);
  const Time now = sim_.now();
  current_ = Pending{std::move(item), remaining, cost_evaluated};
  if (!current_.cost_evaluated) {
    // Interrupt work is never preempted or timesliced, so its first start
    // is its softirq-begin and its completion its softirq-end.
    if (current_.item.prio == Priority::kInterrupt) {
      SAISIM_TRACE_EVENT(util::Subsystem::kCpu,
                         trace::EventType::kSoftirqBegin, now, -1, id_,
                         current_.item.request);
    }
    current_.remaining = current_.item.cost(now);
    SAISIM_CHECK(current_.remaining >= Cycles::zero());
    current_.cost_evaluated = true;
  }

  // User work is timesliced so queued peers (and arriving interrupts on a
  // busy core) are not starved by long compute bursts.
  Cycles slice = current_.remaining;
  if (current_.item.prio == Priority::kUser) {
    const Cycles q = freq_.cycles_in(quantum_);
    if (slice > q) slice = q;
  }

  running_ = true;
  segment_start_ = now;
  segment_cycles_ = slice;
  segment_event_ =
      sim_.after(freq_.duration(slice), [this] { on_segment_end(); });
}

void Core::on_segment_end() {
  SAISIM_CHECK(running_);
  segment_event_.reset();
  const Time now = sim_.now();
  accrue(now);
  running_ = false;

  current_.remaining =
      Cycles{current_.remaining.count() - segment_cycles_.count()};
  if (current_.remaining.count() <= 0) {
    ++acct_.items_completed;
    if (current_.item.prio == Priority::kInterrupt) {
      SAISIM_TRACE_EVENT(util::Subsystem::kCpu, trace::EventType::kSoftirqEnd,
                         now, -1, id_, current_.item.request);
    }
    auto done = std::move(current_.item.on_complete);
    // Reschedule before the completion callback so new submissions from the
    // callback see a consistent core state.
    reschedule();
    if (done) done(now);
    reschedule();
    return;
  }

  // Quantum expired: rotate to the back of the band.
  ++acct_.timeslice_rotations;
  queues_[static_cast<u64>(current_.item.prio)].push_back(std::move(current_));
  reschedule();
}

}  // namespace saisim::cpu
