// Interrupt routing policies — the four schemes of the paper's §III:
//   (i)/(ii) source-aware: deliver to the core that issued / runs the
//            requesting process (the two coincide while the process stays
//            pinned during blocking I/O, which SAIs enforces);
//   (iii)    least-loaded ("Irqbalance", the paper's baseline);
//   (iv)     dedicated core (the AMD lowest-priority Linux default);
// plus plain round-robin (the Intel Linux default).
#pragma once

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "apic/interrupt_message.hpp"
#include "cpu/cpu_system.hpp"

namespace saisim::apic {

/// A policy picks the destination core for one interrupt message. It must
/// return a core allowed by `allowed` (the redirection-table entry for the
/// vector), which is a non-empty, sorted list of core ids.
class InterruptRoutingPolicy {
 public:
  virtual ~InterruptRoutingPolicy() = default;
  virtual CoreId route(const InterruptMessage& msg,
                       const std::vector<CoreId>& allowed,
                       const cpu::CpuSystem& cpus, Time now) = 0;
  virtual std::string_view name() const = 0;
  /// Interrupts delivered to the core their source-aware hint named; 0
  /// for policies that do not follow hints.
  virtual u64 hinted_routes() const { return 0; }
};

/// Intel Linux default: interrupts visit the allowed cores in turn.
class RoundRobinPolicy final : public InterruptRoutingPolicy {
 public:
  CoreId route(const InterruptMessage&, const std::vector<CoreId>& allowed,
               const cpu::CpuSystem&, Time) override {
    const CoreId chosen = allowed[next_ % allowed.size()];
    ++next_;
    return chosen;
  }
  std::string_view name() const override { return "round-robin"; }

 private:
  u64 next_ = 0;
};

/// AMD lowest-priority-mode default: one fixed core handles everything.
class DedicatedPolicy final : public InterruptRoutingPolicy {
 public:
  /// `core` < 0 selects the highest-numbered allowed core (the paper's
  /// observed "core 7" behaviour).
  explicit DedicatedPolicy(CoreId core = kNoCore) : core_(core) {}

  CoreId route(const InterruptMessage&, const std::vector<CoreId>& allowed,
               const cpu::CpuSystem&, Time) override {
    if (core_ != kNoCore) {
      for (CoreId c : allowed)
        if (c == core_) return core_;
    }
    return allowed.back();
  }
  std::string_view name() const override { return "dedicated"; }

 private:
  CoreId core_;
};

/// irqbalance-style load-balanced scheduling — the paper's baseline.
///
/// Two fidelity levels:
///  * kPerInterrupt — each interrupt goes to the instantaneously
///    least-loaded core, matching the paper's description of the "balance
///    scheme" ("interrupts are spread to all the cores based on their load
///    information"). Default for the figure reproductions.
///  * kPerEpoch — per-vector affinity recomputed every `interval` from
///    busy-time deltas, like the real irqbalance daemon's smp_affinity
///    rewrites. Exercised by the policy ablation bench.
class IrqbalancePolicy final : public InterruptRoutingPolicy {
 public:
  enum class Mode { kPerInterrupt, kPerEpoch };

  explicit IrqbalancePolicy(Mode mode = Mode::kPerInterrupt,
                            Time interval = Time::ms(10))
      : mode_(mode), interval_(interval) {}

  CoreId route(const InterruptMessage& msg, const std::vector<CoreId>& allowed,
               const cpu::CpuSystem& cpus, Time now) override;
  std::string_view name() const override { return "irqbalance"; }

 private:
  void rebalance(const std::vector<CoreId>& allowed,
                 const cpu::CpuSystem& cpus, Time now);
  static CoreId least_queued(const std::vector<CoreId>& allowed,
                             const cpu::CpuSystem& cpus);

  Mode mode_;
  Time interval_;
  Time next_rebalance_ = Time::zero();
  std::unordered_map<Vector, CoreId> assignment_;
  std::unordered_map<int, Time> busy_snapshot_;  // core -> busy at last rebalance
  std::vector<CoreId> by_load_;  // cores sorted by rising epoch load
  u64 epoch_claims_ = 0;
};

/// The paper's contribution: deliver to the affinitive core named in the
/// packet. Falls back to a source-unaware policy when a message carries no
/// (or an invalid) hint — e.g. non-PFS traffic, or a core id beyond the
/// 5-bit IP-options encoding.
class SourceAwarePolicy final : public InterruptRoutingPolicy {
 public:
  explicit SourceAwarePolicy(std::unique_ptr<InterruptRoutingPolicy> fallback =
                                 std::make_unique<RoundRobinPolicy>())
      : fallback_(std::move(fallback)) {}

  CoreId route(const InterruptMessage& msg, const std::vector<CoreId>& allowed,
               const cpu::CpuSystem& cpus, Time now) override {
    if (msg.aff_core_id != kNoCore) {
      for (CoreId c : allowed) {
        if (c == msg.aff_core_id) {
          ++hinted_;
          return c;
        }
      }
    }
    return fallback_->route(msg, allowed, cpus, now);
  }
  std::string_view name() const override { return "source-aware"; }

  u64 hinted_routes() const override { return hinted_; }

 private:
  std::unique_ptr<InterruptRoutingPolicy> fallback_;
  u64 hinted_ = 0;
};

}  // namespace saisim::apic
