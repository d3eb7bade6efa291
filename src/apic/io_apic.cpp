#include "apic/io_apic.hpp"

#include <utility>

#include "trace/tracer.hpp"
#include "util/assert.hpp"

namespace saisim::apic {

void LocalApic::deliver(InterruptMessage msg, Time) {
  const CoreId handler = core_.id();
  // Wrap the message body into a softirq work item on this core. The
  // callables are move-only and consumed here: a message is delivered once.
  SAISIM_CHECK(static_cast<bool>(msg.softirq_cost));
  core_.submit(cpu::WorkItem{
      .prio = cpu::Priority::kInterrupt,
      .cost = [cost = std::move(msg.softirq_cost), handler](Time now) mutable {
        return cost(handler, now);
      },
      .on_complete = [done = std::move(msg.on_handled),
                      handler](Time now) mutable {
        if (done) done(handler, now);
      },
      .tag = msg.tag,
      .request = msg.request,
  });
}

IoApic::IoApic(sim::Simulation& simulation, cpu::CpuSystem& cpus,
               std::unique_ptr<InterruptRoutingPolicy> policy,
               Time delivery_latency)
    : sim_(simulation),
      cpus_(cpus),
      policy_(std::move(policy)),
      delivery_latency_(delivery_latency) {
  SAISIM_CHECK(policy_ != nullptr);
  local_apics_.reserve(static_cast<u64>(cpus.num_cores()));
  for (int i = 0; i < cpus.num_cores(); ++i) {
    local_apics_.emplace_back(cpus.core(i));
    all_cores_.push_back(i);
  }
  stats_.per_core.resize(static_cast<u64>(cpus.num_cores()));
}

void IoApic::set_redirection(Vector vector, std::vector<CoreId> allowed) {
  SAISIM_CHECK(!allowed.empty());
  for (CoreId c : allowed) SAISIM_CHECK(c >= 0 && c < cpus_.num_cores());
  redirection_[vector] = std::move(allowed);
}

const std::vector<CoreId>& IoApic::allowed_for(Vector v) const {
  auto it = redirection_.find(v);
  return it == redirection_.end() ? all_cores_ : it->second;
}

void IoApic::raise(InterruptMessage msg) {
  ++stats_.raised;
  const auto& allowed = allowed_for(msg.vector);
  const CoreId dest = policy_->route(msg, allowed, cpus_, sim_.now());
  SAISIM_CHECK_MSG(dest >= 0 && dest < cpus_.num_cores(),
                   "policy routed to an invalid core");
  ++stats_.per_core[static_cast<u64>(dest)];
  SAISIM_TRACE_EVENT(util::Subsystem::kApic, trace::EventType::kIrqRaise,
                     sim_.now(), -1, dest, msg.request, msg.vector,
                     msg.aff_core_id != kNoCore ? 1 : 0);
  sim_.after(delivery_latency_, [this, dest, msg = std::move(msg)]() mutable {
    local_apics_[static_cast<u64>(dest)].deliver(std::move(msg), sim_.now());
  });
}

}  // namespace saisim::apic
