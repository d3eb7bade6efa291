// The benchmark's workloads. All are closed loop: one client machine with
// 8 cores whose IOR processes each issue the next transfer only after the
// previous one completes. README.md gives the reason for each.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// One experiment = one run_experiment call per policy, in this order.
  std::vector<saisim::PolicyKind> policies;
  /// Transfers each IOR process issues in a timed experiment, and in the
  /// smallest (smoke and warm-up) size.
  saisim::u64 transfers_per_proc = 0;
  saisim::u64 smoke_transfers_per_proc = 0;
  /// Workload whose outputs this one must reproduce exactly (shard
  /// identity), or empty.
  std::string same_outputs_as;
  /// Everything but seed, size and policy.
  void (*configure)(saisim::ExperimentConfig&) = nullptr;
};

const std::vector<Workload>& all_workloads();
const Workload* find_workload(std::string_view name);

/// One run's configuration: the workload's settings with `seed` in both
/// `seed` and `fault.seed`, `transfers` per process, and `policy`.
saisim::ExperimentConfig make_config(const Workload& w, saisim::u64 seed,
                                     saisim::u64 transfers,
                                     saisim::PolicyKind policy);

}  // namespace perfbench
