#include "trace/runtime.hpp"

#include <algorithm>
#include <cstdio>

namespace saisim::trace {

RuntimeOptions& options() {
  static RuntimeOptions opts;
  return opts;
}

RunCollector& RunCollector::instance() {
  static RunCollector c;
  return c;
}

void RunCollector::add_run(RunTrace run) {
  std::lock_guard lock(mu_);
  for (const RunTrace& r : runs_) {
    if (r.sort_key == run.sort_key) return;
  }
  runs_.push_back(std::move(run));
}

void RunCollector::finalize() {
  std::lock_guard lock(mu_);
  if (finalized_) return;
  finalized_ = true;
  if (runs_.empty()) return;
  std::sort(runs_.begin(), runs_.end(),
            [](const RunTrace& a, const RunTrace& b) {
              return a.sort_key < b.sort_key;
            });

  const RuntimeOptions& opts = options();
  if (!opts.trace_file.empty()) {
    const std::string json = to_chrome_json(runs_);
    if (FILE* f = std::fopen(opts.trace_file.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "saisim: wrote trace (%llu runs) to %s\n",
                   static_cast<unsigned long long>(runs_.size()),
                   opts.trace_file.c_str());
    } else {
      std::fprintf(stderr, "saisim: cannot write trace file %s\n",
                   opts.trace_file.c_str());
    }
    // The phase breakdown is the trace's headline; print it where the
    // trace was asked for (stderr, so --format=csv/json stdout stays
    // machine-clean).
    for (const RunTrace& run : runs_) {
      if (run.spans.empty()) continue;
      const PhaseTotals totals = phase_totals(run.spans);
      std::fprintf(stderr, "\n[%s] %lld request spans, phase breakdown:\n",
                   run.label.c_str(), static_cast<long long>(totals.spans));
      std::fputs(phase_table(totals).to_text().c_str(), stderr);
    }
  }
  if (!opts.metrics_file.empty()) {
    const std::string csv = metrics_csv(runs_);
    if (FILE* f = std::fopen(opts.metrics_file.c_str(), "w")) {
      std::fwrite(csv.data(), 1, csv.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "saisim: wrote metrics (%llu runs) to %s\n",
                   static_cast<unsigned long long>(runs_.size()),
                   opts.metrics_file.c_str());
    } else {
      std::fprintf(stderr, "saisim: cannot write metrics file %s\n",
                   opts.metrics_file.c_str());
    }
  }
  if (!opts.timeline_file.empty()) {
    const std::string csv = timeline_csv(runs_);
    if (FILE* f = std::fopen(opts.timeline_file.c_str(), "w")) {
      std::fwrite(csv.data(), 1, csv.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "saisim: wrote timeline (%llu runs) to %s\n",
                   static_cast<unsigned long long>(runs_.size()),
                   opts.timeline_file.c_str());
    } else {
      std::fprintf(stderr, "saisim: cannot write timeline file %s\n",
                   opts.timeline_file.c_str());
    }
  }
  // SLO breaches are anomalies: always surface them on stderr, with the
  // flight-recorder dump for the first breach of each run (the bounded
  // ring of trace events leading up to the threshold crossing).
  for (const RunTrace& run : runs_) {
    const auto& breaches = run.timeline.breaches;
    if (breaches.empty()) continue;
    std::fprintf(stderr,
                 "\n[%s] %llu SLO breach(es); first at sample %llu "
                 "(t=%s us): %s = %lld > %lld\n",
                 run.label.c_str(),
                 static_cast<unsigned long long>(breaches.size()),
                 static_cast<unsigned long long>(breaches.front().tick),
                 format_us(breaches.front().when.picoseconds()).c_str(),
                 breaches.front().metric.c_str(),
                 static_cast<long long>(breaches.front().value),
                 static_cast<long long>(breaches.front().threshold));
    const SloBreach& first = breaches.front();
    if (first.flight.empty()) {
      std::fprintf(stderr, "  (flight recorder empty — build with "
                           "SAISIM_TRACING=ON to capture events)\n");
      continue;
    }
    std::fprintf(stderr, "  flight recorder (%llu events, oldest first):\n",
                 static_cast<unsigned long long>(first.flight.size()));
    for (const Event& e : first.flight) {
      std::fprintf(stderr, "    %14s us  %-22s node=%d core=%d req=%lld "
                           "a=%lld b=%lld\n",
                   format_us(e.when.picoseconds()).c_str(),
                   event_name(e.type), e.node, e.core,
                   static_cast<long long>(e.request),
                   static_cast<long long>(e.a),
                   static_cast<long long>(e.b));
    }
  }
}

}  // namespace saisim::trace
