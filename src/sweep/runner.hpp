// Parallel sweep execution with a fingerprint-keyed result cache.
//
// `SweepRunner::run` materialises every grid point of a `SweepSpec`,
// executes them on a thread pool (hardware concurrency by default), and
// returns `RunMetrics` in deterministic row-major axis order regardless of
// completion order. Results are cached per runner keyed by the exact
// config fingerprint, so overlapping sweeps (e.g. a figure's table phase
// and its google-benchmark phase) never re-simulate a configuration —
// and nothing like the old `int(gbit * 10)` float-truncation key can make
// two different configs collide.
#pragma once

#include <string>
#include <vector>

#include "sweep/parallel.hpp"
#include "sweep/result_cache.hpp"
#include "sweep/spec.hpp"

namespace saisim::sweep {

struct SweepResult {
  std::string name;
  std::vector<std::string> axis_names;
  std::vector<u64> axis_sizes;
  int policy_axis = -1;
  std::vector<PolicyKind> policy_kinds;
  /// Grid points and their metrics, both in row-major axis order.
  std::vector<SweepSpec::Point> points;
  std::vector<RunMetrics> metrics;

  u64 size() const { return points.size(); }

  /// One comparison per non-policy coordinate, in grid order.
  struct ComparisonRow {
    std::vector<std::string> labels;  // non-policy axis labels
    std::vector<u64> index;           // non-policy axis indices
    Comparison comparison;
  };
  /// Collapse the policy axis into baseline-vs-treatment comparisons.
  /// Both policies must be members of the spec's policy set.
  std::vector<ComparisonRow> comparisons(
      PolicyKind baseline = PolicyKind::kIrqbalance,
      PolicyKind treatment = PolicyKind::kSourceAware) const;
};

struct RunnerOptions {
  int threads = 0;       // 0 = hardware concurrency
  bool progress = true;  // single completed/total line on stderr
};

/// Per-runner cache statistics (alias of the generic cache's counters).
using RunnerStats = CacheStats;

class SweepRunner {
 public:
  explicit SweepRunner(RunnerOptions opts = {});

  void set_options(RunnerOptions opts) { opts_ = opts; }

  /// Execute (or fetch from cache) every grid point of `spec`.
  SweepResult run(const SweepSpec& spec);

  /// One configuration through the same fingerprint cache.
  RunMetrics run_config(const ExperimentConfig& cfg);

  RunnerStats stats() const { return cache_.stats(); }

 private:
  RunnerOptions opts_;
  ResultCache<ExperimentConfig, RunMetrics> cache_;
};

/// The paper's two-policy comparison, built on the runner: both runs
/// execute concurrently and the result is bit-identical to two serial
/// `run_experiment` calls.
Comparison compare_policies(ExperimentConfig cfg,
                            PolicyKind baseline = PolicyKind::kIrqbalance);

}  // namespace saisim::sweep
