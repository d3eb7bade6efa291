// Per-core background activity: OS housekeeping, daemons, timer ticks.
//
// Each core periodically touches a small per-core hot working set (always
// cache-resident after warm-up). This serves two purposes: it gives
// load-based policies a non-zero signal to balance against, and it supplies
// the baseline of cache *hits* that the measured system's L2 miss rates are
// diluted by — which is why the paper's miss rates rise with NIC bandwidth
// (data-path misses grow, background hits do not).
#pragma once

#include "cpu/cpu_system.hpp"
#include "mem/memory_system.hpp"
#include "util/reflect.hpp"

namespace saisim::workload {

struct BackgroundConfig {
  Time period = Time::ms(1);
  /// Bytes of the per-core hot set touched each tick.
  u64 touch_bytes = 16ull << 10;
  Cycles fixed_cycles{2000};
};

template <class V>
void describe(V& v, BackgroundConfig& c) {
  namespace r = util::reflect;
  v.field("period", c.period, r::positive());
  v.field("touch_bytes", c.touch_bytes, r::positive(), "B");
  v.field("fixed_cycles", c.fixed_cycles, r::non_negative());
}

class BackgroundLoad : public sim::Actor {
 public:
  BackgroundLoad(sim::Simulation& simulation, cpu::CpuSystem& cpus,
                 mem::MemorySystem& memory, mem::AddressSpace& address_space,
                 BackgroundConfig config = {})
      : Actor(simulation), cpus_(cpus), memory_(memory), cfg_(config) {
    for (int c = 0; c < cpus.num_cores(); ++c) {
      hot_sets_.push_back(address_space.allocate(cfg_.touch_bytes));
    }
  }

  /// Start ticking until `until` (exclusive of further scheduling).
  void start(Time until) {
    stop_at_ = until;
    // Stagger cores so ticks do not all collide on the same instant.
    for (int c = 0; c < cpus_.num_cores(); ++c) {
      sim().after(cfg_.period * (c + 1) / cpus_.num_cores(),
                  [this, c] { tick(c); });
    }
  }

 private:
  void tick(int core) {
    if (now() >= stop_at_) return;
    const auto range = hot_sets_[static_cast<u64>(core)];
    cpus_.core(core).submit(cpu::WorkItem{
        .prio = cpu::Priority::kKernel,
        .cost =
            [this, core, range](Time at) {
              const Time t = memory_.access(
                  core, range.base, range.bytes,
                  mem::MemorySystem::AccessType::kRead, at);
              return cfg_.fixed_cycles + cpus_.frequency().cycles_in(t);
            },
        .on_complete = nullptr,
        .tag = "background",
    });
    sim().after(cfg_.period, [this, core] { tick(core); });
  }

  cpu::CpuSystem& cpus_;
  mem::MemorySystem& memory_;
  BackgroundConfig cfg_;
  std::vector<mem::AddressRange> hot_sets_;
  Time stop_at_ = Time::max();
};

}  // namespace saisim::workload
