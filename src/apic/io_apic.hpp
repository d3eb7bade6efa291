// I/O APIC + local APICs.
//
// The I/O APIC receives device interrupts, consults its redirection table
// (which cores may handle each vector) and the active routing policy, and
// sends an interrupt message to the chosen core's local APIC. The local
// APIC enqueues the softirq on its core at kInterrupt priority, preempting
// application work — mirroring the hardware path of the paper's §II.A.
#pragma once

#include <memory>
#include <vector>

#include "apic/interrupt_message.hpp"
#include "apic/routing_policy.hpp"
#include "cpu/cpu_system.hpp"
#include "sim/simulation.hpp"

namespace saisim::apic {

class LocalApic {
 public:
  explicit LocalApic(cpu::Core& core) : core_(core) {}

  /// Accept an interrupt message: run its softirq on this core.
  void deliver(InterruptMessage msg, Time);

 private:
  cpu::Core& core_;
};

struct IoApicStats {
  u64 raised = 0;
  std::vector<u64> per_core;  // deliveries per destination core
};

class IoApic {
 public:
  /// `delivery_latency` models APIC message propagation + vector dispatch.
  IoApic(sim::Simulation& simulation, cpu::CpuSystem& cpus,
         std::unique_ptr<InterruptRoutingPolicy> policy,
         Time delivery_latency = Time::ns(300));

  /// Route and deliver one device interrupt.
  void raise(InterruptMessage msg);

  /// Restrict a vector to a set of cores (redirection-table entry). Cores
  /// must be valid and non-empty; unlisted vectors may go to any core.
  void set_redirection(Vector vector, std::vector<CoreId> allowed);

  InterruptRoutingPolicy& policy() { return *policy_; }
  const IoApicStats& stats() const { return stats_; }

 private:
  const std::vector<CoreId>& allowed_for(Vector v) const;

  sim::Simulation& sim_;
  cpu::CpuSystem& cpus_;
  std::unique_ptr<InterruptRoutingPolicy> policy_;
  Time delivery_latency_;

  std::vector<LocalApic> local_apics_;
  std::vector<CoreId> all_cores_;
  std::unordered_map<Vector, std::vector<CoreId>> redirection_;
  IoApicStats stats_;
};

}  // namespace saisim::apic
