// Process-wide observability runtime: the options the shared CLI sets and
// the collector that gathers per-run traces from sweep workers and writes
// the export files once at process exit.
//
// `run_experiment` consults `options()` to decide whether to install a
// Tracer for the run, and hands the finished run to the collector. The
// collector dedupes on the run's sort key (the sweep runner's result cache
// means one config+policy may be requested many times but only simulates
// once — and a cache hit produces no new trace) and sorts runs by that key
// before exporting, so output never depends on worker scheduling.
#pragma once

#include <string>
#include <vector>

#include "trace/counter_registry.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace saisim::trace {

struct RuntimeOptions {
  /// Any of --trace/--metrics given: runs install tracers and report in.
  bool collect = false;
  /// Record raw events (--trace given) as opposed to counters only.
  bool events = false;
  SubsystemMask mask = kAllSubsystems;
  u64 capacity = Tracer::kDefaultCapacity;
  std::string trace_file;     // "" = no trace JSON
  std::string metrics_file;   // "" = no metrics CSV
  std::string timeline_file;  // "" = no time-series CSV
};

/// The process-wide options (mutated by the CLI layer before any runs).
RuntimeOptions& options();

class RunCollector {
 public:
  static RunCollector& instance();

  /// Thread-safe; first writer for a given sort_key wins (reruns of the
  /// same config produce identical traces, so dropping duplicates is
  /// lossless).
  void add_run(RunTrace run);

  /// Writes trace_file / metrics_file per options() and prints the per-run
  /// phase tables to stderr. Idempotent; registered via std::atexit by the
  /// CLI layer and callable directly from tests.
  void finalize();

 private:
  mutable std::mutex mu_;
  std::vector<RunTrace> runs_;
  bool finalized_ = false;
};

}  // namespace saisim::trace
