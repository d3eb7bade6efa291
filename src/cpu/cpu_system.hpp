// The client node's set of cores plus aggregate accounting.
#pragma once

#include <memory>
#include <vector>

#include "cpu/core.hpp"

namespace saisim::cpu {

class CpuSystem {
 public:
  CpuSystem(sim::Simulation& simulation, int num_cores, Frequency freq,
            Time user_quantum = Time::us(100)) {
    SAISIM_CHECK(num_cores > 0);
    cores_.reserve(static_cast<u64>(num_cores));
    for (int i = 0; i < num_cores; ++i) {
      cores_.push_back(
          std::make_unique<Core>(simulation, CoreId{i}, freq, user_quantum));
    }
  }

  int num_cores() const { return static_cast<int>(cores_.size()); }
  Frequency frequency() const { return cores_.front()->frequency(); }

  Core& core(CoreId id) {
    SAISIM_CHECK(id >= 0 && id < num_cores());
    return *cores_[static_cast<u64>(id)];
  }
  const Core& core(CoreId id) const {
    SAISIM_CHECK(id >= 0 && id < num_cores());
    return *cores_[static_cast<u64>(id)];
  }

  /// Total busy (unhalted) time across all cores.
  Time total_busy() const {
    Time t = Time::zero();
    for (const auto& c : cores_) t += c->accounting().busy_total;
    return t;
  }

  Time total_busy_by_prio(Priority p) const {
    Time t = Time::zero();
    for (const auto& c : cores_)
      t += c->accounting().busy_by_prio[static_cast<u64>(p)];
    return t;
  }

  /// Total unhalted cycles across cores (the Oprofile CPU_CLK_UNHALTED sum).
  Cycles total_unhalted() const {
    Cycles c = Cycles::zero();
    for (const auto& core : cores_)
      c += core->accounting().unhalted(core->frequency());
    return c;
  }

  CoreId least_loaded(Time now) const {
    (void)now;
    CoreId best = 0;
    u64 best_load = cores_.front()->load();
    for (int i = 1; i < num_cores(); ++i) {
      const u64 l = cores_[static_cast<u64>(i)]->load();
      if (l < best_load) {
        best_load = l;
        best = i;
      }
    }
    return best;
  }

 private:
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace saisim::cpu
