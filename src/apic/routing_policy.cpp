#include "apic/routing_policy.hpp"

#include <algorithm>

namespace saisim::apic {

CoreId IrqbalancePolicy::least_queued(const std::vector<CoreId>& allowed,
                                      const cpu::CpuSystem& cpus) {
  CoreId target = allowed.front();
  u64 best_load = ~0ull;
  for (CoreId c : allowed) {
    const u64 l = cpus.core(c).load();
    if (l < best_load) {
      best_load = l;
      target = c;
    }
  }
  return target;
}

void IrqbalancePolicy::rebalance(const std::vector<CoreId>& allowed,
                                 const cpu::CpuSystem& cpus, Time now) {
  // Load metric: busy time accrued on each core since the last rebalance —
  // what the daemon derives from /proc/interrupts + /proc/stat.
  by_load_ = allowed;
  std::vector<Time> delta(allowed.size());
  for (u64 i = 0; i < allowed.size(); ++i) {
    const CoreId c = allowed[i];
    const Time busy_now = cpus.core(c).accounting().busy_total;
    auto it = busy_snapshot_.find(c);
    const Time prev = it == busy_snapshot_.end() ? Time::zero() : it->second;
    delta[i] = busy_now - prev;
    busy_snapshot_[c] = busy_now;
  }
  std::stable_sort(by_load_.begin(), by_load_.end(), [&](CoreId a, CoreId b) {
    const u64 ia = static_cast<u64>(
        std::find(allowed.begin(), allowed.end(), a) - allowed.begin());
    const u64 ib = static_cast<u64>(
        std::find(allowed.begin(), allowed.end(), b) - allowed.begin());
    return delta[ia] < delta[ib];
  });

  assignment_.clear();
  epoch_claims_ = 0;
  next_rebalance_ = now + interval_;
}

CoreId IrqbalancePolicy::route(const InterruptMessage& msg,
                               const std::vector<CoreId>& allowed,
                               const cpu::CpuSystem& cpus, Time now) {
  if (mode_ == Mode::kPerInterrupt) {
    return least_queued(allowed, cpus);
  }

  if (now >= next_rebalance_ || by_load_.empty()) {
    rebalance(allowed, cpus, now);
  }
  auto it = assignment_.find(msg.vector);
  if (it != assignment_.end()) {
    // Assignment may predate a redirection-table change; re-validate.
    if (std::find(allowed.begin(), allowed.end(), it->second) != allowed.end())
      return it->second;
    assignment_.erase(it);
  }
  // New vector this epoch: hand vectors to cores in rising-load order.
  const CoreId target = by_load_[epoch_claims_ % by_load_.size()];
  ++epoch_claims_;
  assignment_[msg.vector] = target;
  return target;
}

}  // namespace saisim::apic
