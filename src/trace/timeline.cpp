#include "trace/timeline.hpp"

#include <algorithm>
#include <utility>

#include "trace/tracer.hpp"
#include "util/assert.hpp"

namespace saisim::trace {

namespace {

/// Quantile over a 64-entry log2 bucket array (same bucketing as
/// stats::Log2Histogram / CounterRegistry::LatencyRecorder, and the same
/// edge semantics the LatencyRecorder regression test pins): empty → 0,
/// single populated bucket → that bucket's midpoint, otherwise the upper
/// edge of the bucket containing the clamped target rank.
u64 log2_quantile(const u64* buckets, double q) {
  u64 n = 0;
  int populated = 0;
  int last = 0;
  for (int i = 0; i < 64; ++i) {
    if (buckets[i]) {
      n += buckets[i];
      ++populated;
      last = i;
    }
  }
  if (n == 0) return 0;
  if (populated == 1) {
    const u64 lower = last == 0 ? 0 : 1ull << last;
    const u64 upper = last >= 63 ? ~0ull : (2ull << last) - 1;
    return lower + (upper - lower) / 2;
  }
  u64 target = static_cast<u64>(q * static_cast<double>(n));
  if (target >= n) target = n - 1;  // q >= 1.0 selects the last sample
  u64 seen = 0;
  for (int i = 0; i < 64; ++i) {
    seen += buckets[i];
    if (seen > target) return i >= 63 ? ~0ull : (2ull << i) - 1;
  }
  return ~0ull;  // unreachable: target < n and the buckets sum to n
}

}  // namespace

TimelineSampler::TimelineSampler(Time period, int slo_window,
                                 u64 flight_capacity)
    : period_(period), window_(slo_window), flight_capacity_(flight_capacity) {
  SAISIM_CHECK(period > Time::zero());
  SAISIM_CHECK(slo_window >= 1);
}

u64 TimelineSampler::add_gauge(std::string name, Reader read) {
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kGauge;
  p.read = std::move(read);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

u64 TimelineSampler::add_counter(std::string name, Reader read) {
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kCounter;
  p.read = std::move(read);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

u64 TimelineSampler::add_window_p99(std::string name,
                                    const stats::Log2Histogram* hist) {
  SAISIM_CHECK(hist != nullptr);
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kWindowP99;
  p.hist = hist;
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

u64 TimelineSampler::add_window_rate_ppm(std::string name, Reader numerator,
                                         Reader denominator) {
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kWindowRatePpm;
  p.read = std::move(numerator);
  p.read_den = std::move(denominator);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

void TimelineSampler::watch(u64 probe, i64 threshold) {
  SAISIM_CHECK(probe < probes_.size());
  probes_[probe].watched = true;
  probes_[probe].threshold = threshold;
}

i64 TimelineSampler::read_probe(Probe& p) {
  switch (p.kind) {
    case Kind::kGauge:
    case Kind::kCounter:
      return p.read();
    case Kind::kWindowP99: {
      std::vector<u64> cur(64);
      for (int i = 0; i < 64; ++i) cur[static_cast<u64>(i)] = p.hist->bucket(i);
      u64 window[64];
      const bool full = p.hist_snaps.size() == static_cast<u64>(window_);
      for (int i = 0; i < 64; ++i) {
        const u64 base = full ? p.hist_snaps.front()[static_cast<u64>(i)] : 0;
        window[i] = cur[static_cast<u64>(i)] - base;
      }
      p.hist_snaps.push_back(std::move(cur));
      if (p.hist_snaps.size() > static_cast<u64>(window_)) {
        p.hist_snaps.erase(p.hist_snaps.begin());
      }
      return static_cast<i64>(log2_quantile(window, 0.99));
    }
    case Kind::kWindowRatePpm: {
      const std::pair<u64, u64> cur{static_cast<u64>(p.read()),
                                    static_cast<u64>(p.read_den())};
      const bool full = p.rate_snaps.size() == static_cast<u64>(window_);
      const std::pair<u64, u64> base =
          full ? p.rate_snaps.front() : std::pair<u64, u64>{0, 0};
      p.rate_snaps.push_back(cur);
      if (p.rate_snaps.size() > static_cast<u64>(window_)) {
        p.rate_snaps.erase(p.rate_snaps.begin());
      }
      const u64 dnum = cur.first - base.first;
      const u64 dden = cur.second - base.second;
      return dden ? static_cast<i64>(dnum * 1'000'000 / dden) : 0;
    }
  }
  return 0;
}

u64 TimelineSampler::held_samples() const {
  u64 n = 0;
  for (const Probe& p : probes_) n += p.series.size();
  return n;
}

void TimelineSampler::sample(Time now) {
  const u64 tick = ticks_++;
  for (Probe& p : probes_) {
    const i64 v = read_probe(p);
    p.series.push_back(v);
    if (!p.watched) continue;
    const bool breached = v > p.threshold;
    if (breached && !p.in_breach) {
      // Rising edge: one anomaly per excursion, not one per saturated tick.
      SloBreach b;
      b.tick = tick;
      b.when = now;
      b.metric = p.name;
      b.value = v;
      b.threshold = p.threshold;
      if (Tracer* t = Tracer::current()) {
        b.flight = t->tail(flight_capacity_);
      }
      SAISIM_TRACE_EVENT(util::Subsystem::kCore, EventType::kSloBreach, now,
                         -1, -1, -1, v, p.threshold,
                         static_cast<i64>(tick));
      breaches_.push_back(std::move(b));
    }
    p.in_breach = breached;
  }
}

TimelineSeries merge_timelines(const std::vector<TimelineSampler*>& by_rank) {
  TimelineSeries out;
  if (by_rank.empty()) return out;
  out.period = by_rank[0]->period_;
  // The control shard (rank 0) stops the run; worker shards may have run
  // conservatively ahead inside the final lookahead window and sampled
  // extra ticks. Truncating to rank 0's count makes the merged timeline a
  // pure function of the model, not of the round schedule.
  out.ticks = by_rank[0]->ticks_;

  std::vector<TimelineSampler::Probe*> rows;
  for (TimelineSampler* s : by_rank) {
    SAISIM_CHECK(s->period_ == out.period);
    SAISIM_CHECK(s->ticks_ >= out.ticks || s == by_rank[0]);
    for (auto& p : s->probes_) rows.push_back(&p);
  }
  std::sort(rows.begin(), rows.end(),
            [](const TimelineSampler::Probe* a,
               const TimelineSampler::Probe* b) { return a->name < b->name; });
  for (u64 i = 1; i < rows.size(); ++i) {
    SAISIM_CHECK_MSG(rows[i]->name != rows[i - 1]->name,
                     "duplicate timeline metric name");
  }

  out.metrics.reserve(rows.size());
  out.values.reserve(rows.size());
  for (TimelineSampler::Probe* p : rows) {
    out.metrics.push_back(p->name);
    // The series moves out whole (leaving the probe's empty); truncating
    // keeps its capacity, so no value is copied.
    std::vector<i64> v = std::move(p->series);
    v.resize(out.ticks);
    if (p->kind == TimelineSampler::Kind::kCounter) {
      // Cumulative → per-interval delta, newest-last so the subtraction
      // can run in place back-to-front.
      for (u64 k = v.size(); k-- > 1;) v[k] -= v[k - 1];
    }
    out.values.push_back(std::move(v));
  }

  for (TimelineSampler* s : by_rank) {
    for (SloBreach& b : s->breaches_) {
      if (b.tick >= out.ticks) continue;  // run-ahead tick, beyond the run
      out.breaches.push_back(std::move(b));
    }
    s->breaches_.clear();
  }
  std::sort(out.breaches.begin(), out.breaches.end(),
            [](const SloBreach& a, const SloBreach& b) {
              return a.tick != b.tick ? a.tick < b.tick : a.metric < b.metric;
            });
  return out;
}

}  // namespace saisim::trace
