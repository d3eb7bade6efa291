// The event tracer: a per-simulation, bounded, chunked event sink.
//
// Zero overhead when compiled out (`SAISIM_TRACING_ENABLED` undefined →
// the SAISIM_TRACE_EVENT macro expands to nothing) and near-zero when
// compiled in but not enabled at runtime: each instrumentation site costs
// one thread-local load and a null check. A site only records when a Tracer
// is installed on the current thread (TraceScope) *and* its subsystem
// passes the tracer's filter mask.
//
// The sweep runner executes simulations on worker threads, so the active
// tracer is a thread-local pointer: each worker installs its own Tracer for
// the duration of one `run_experiment` and events from concurrent runs
// never interleave. Within one run the DES core is single-threaded and
// sim-time ordered, so the recorded stream is deterministic.
//
// Storage is chunked (no reallocation-copy of a multi-MiB vector mid-run)
// and bounded: past `capacity` events the tracer drops new events and
// counts them, so a pathological config cannot OOM the host. A ring-mode
// tracer instead overwrites the *oldest* event — the flight recorder the
// SLO watchdog dumps around a breach keeps the most recent events, which
// is the opposite retention policy from a capped full trace.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "trace/event.hpp"

namespace saisim::trace {

/// Bitmask over util::Subsystem values.
using SubsystemMask = u32;
inline constexpr SubsystemMask kAllSubsystems = ~SubsystemMask{0};

inline constexpr SubsystemMask subsystem_bit(util::Subsystem s) {
  return SubsystemMask{1} << static_cast<u8>(s);
}

class Tracer {
 public:
  static constexpr u64 kDefaultCapacity = 1ull << 20;

  /// `ring` selects the retention policy at capacity: false (default)
  /// drops new events and counts them; true overwrites the oldest event —
  /// the flight-recorder mode.
  explicit Tracer(SubsystemMask mask = kAllSubsystems,
                  u64 capacity = kDefaultCapacity, bool ring = false)
      : mask_(mask), capacity_(capacity), ring_(ring) {
    if (ring_ && capacity_ == 0) capacity_ = 1;
  }

  /// The tracer installed on this thread, or nullptr (tracing inactive).
  static Tracer* current() { return tl_current_; }

  bool wants(util::Subsystem s) const { return mask_ & subsystem_bit(s); }

  void record(EventType type, Time when, i32 node, i32 core,
              RequestId request, i64 a = 0, i64 b = 0, i64 c = 0) {
    if (size_ >= capacity_) {
      if (!ring_) {
        ++dropped_;
        return;
      }
      // Ring: overwrite the oldest event in place.
      const u64 slot = head_;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      chunks_[slot / kChunk][slot % kChunk] =
          Event{when, type, node, core, request, a, b, c};
      return;
    }
    if (size_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique<Event[]>(kChunk));
    }
    chunks_[size_ / kChunk][size_ % kChunk] =
        Event{when, type, node, core, request, a, b, c};
    ++size_;
  }

  u64 size() const { return size_; }
  u64 dropped() const { return dropped_; }

  /// The i-th retained event in recording order (for a full ring, index 0
  /// is the oldest surviving event, not the first ever recorded).
  const Event& event(u64 i) const {
    u64 slot = head_ + i;
    if (slot >= capacity_) slot -= capacity_;
    return chunks_[slot / kChunk][slot % kChunk];
  }

  /// The last min(n, size()) retained events, oldest first — the flight-
  /// recorder snapshot the SLO watchdog attaches to a breach.
  std::vector<Event> tail(u64 n) const {
    const u64 m = n < size_ ? n : size_;
    std::vector<Event> out;
    out.reserve(m);
    for (u64 i = size_ - m; i < size_; ++i) out.push_back(event(i));
    return out;
  }

  /// Consolidates the recorded stream (in recording order) and resets the
  /// tracer.
  std::vector<Event> take() {
    std::vector<Event> out;
    out.reserve(size_);
    for (u64 i = 0; i < size_; ++i) out.push_back(event(i));
    chunks_.clear();
    size_ = 0;
    head_ = 0;
    dropped_ = 0;
    return out;
  }

 private:
  static constexpr u64 kChunk = 8192;

  friend class TraceScope;
  inline static thread_local Tracer* tl_current_ = nullptr;

  SubsystemMask mask_;
  u64 capacity_;
  bool ring_ = false;
  u64 size_ = 0;
  u64 head_ = 0;  // index of the oldest retained event (ring mode)
  u64 dropped_ = 0;
  std::vector<std::unique_ptr<Event[]>> chunks_;
};

/// Merge per-shard event streams into one timestamp-ordered stream.
/// Streams are concatenated in the given (shard-rank) order and stably
/// sorted by timestamp: simultaneous events order by shard rank, then by
/// within-shard recording order — a deterministic total order independent
/// of worker-thread timing. A single stream passes through untouched
/// (stable sort of an already time-ordered stream), so the 1-shard path is
/// byte-identical to the pre-shard tracer output.
inline std::vector<Event> merge_event_streams(
    std::vector<std::vector<Event>> streams) {
  if (streams.empty()) return {};
  std::vector<Event> merged = std::move(streams[0]);
  for (u64 s = 1; s < streams.size(); ++s) {
    merged.insert(merged.end(), streams[s].begin(), streams[s].end());
  }
  std::stable_sort(
      merged.begin(), merged.end(),
      [](const Event& a, const Event& b) { return a.when < b.when; });
  return merged;
}

/// RAII installation of a tracer as the current thread's sink.
class TraceScope {
 public:
  explicit TraceScope(Tracer* t) : prev_(Tracer::tl_current_) {
    Tracer::tl_current_ = t;
  }
  ~TraceScope() { Tracer::tl_current_ = prev_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* prev_;
};

namespace detail {
// Swallows trace-macro arguments in tracing-OFF builds so variables that
// exist only to be traced don't trip -Wunused-but-set-variable.
template <class... Ts>
constexpr void sink(const Ts&...) {}
}  // namespace detail

}  // namespace saisim::trace

// Instrumentation sites use this macro so a build with tracing compiled out
// (-DSAISIM_TRACING=OFF) carries no per-event cost at all. The disabled form
// still names its arguments inside a dead branch: they stay type-checked and
// "used" in both build flavours, but the branch folds away entirely.
#if defined(SAISIM_TRACING_ENABLED)
#define SAISIM_TRACE_EVENT(subsys_, ...)                      \
  do {                                                        \
    ::saisim::trace::Tracer* saisim_tracer_ =                 \
        ::saisim::trace::Tracer::current();                   \
    if (saisim_tracer_ && saisim_tracer_->wants(subsys_)) {   \
      saisim_tracer_->record(__VA_ARGS__);                    \
    }                                                         \
  } while (0)
#else
#define SAISIM_TRACE_EVENT(subsys_, ...)                    \
  do {                                                      \
    if (false) {                                            \
      ::saisim::trace::detail::sink(subsys_, __VA_ARGS__);  \
    }                                                       \
  } while (0)
#endif
