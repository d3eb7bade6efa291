// Policies beyond the paper's four, implementing its stated future work
// ("integration of different policies ... for a robust, general solution")
// and the closest Linux mainline relative (RSS-style flow hashing, the
// mechanism behind the RPS/RFS family).
#pragma once

#include <memory>

#include "apic/routing_policy.hpp"

namespace saisim::apic {

/// RSS-style static flow hashing: a flow (identified by the request id the
/// NIC's hash sees) always lands on hash(flow) % cores. Keeps *per-flow*
/// cache affinity — consecutive packets of one flow share a core — but the
/// chosen core has no relation to the consuming process, which is exactly
/// the gap SAIs fills.
class FlowHashPolicy final : public InterruptRoutingPolicy {
 public:
  CoreId route(const InterruptMessage& msg, const std::vector<CoreId>& allowed,
               const cpu::CpuSystem&, Time) override {
    u64 h = static_cast<u64>(msg.request >= 0 ? msg.request : 0) + 1u;
    h = h * u64{0x9E3779B97F4A7C15ull};
    h ^= h >> 32;
    h ^= static_cast<u64>(static_cast<u32>(msg.vector)) *
         u64{0xBF58476D1CE4E5B9ull};
    return allowed[h % allowed.size()];
  }
  std::string_view name() const override { return "flow-hash"; }
};

/// The paper's future-work integration: follow the source-aware hint
/// unless the hinted core is congested (its runnable backlog exceeds
/// `overload_backlog`), in which case fall back to load balancing. Trades
/// a bounded amount of locality for tail latency under skewed load.
class HybridPolicy final : public InterruptRoutingPolicy {
 public:
  explicit HybridPolicy(u64 overload_backlog = 8,
                        std::unique_ptr<InterruptRoutingPolicy> fallback =
                            std::make_unique<IrqbalancePolicy>())
      : overload_backlog_(overload_backlog), fallback_(std::move(fallback)) {}

  CoreId route(const InterruptMessage& msg, const std::vector<CoreId>& allowed,
               const cpu::CpuSystem& cpus, Time now) override {
    if (msg.aff_core_id != kNoCore) {
      for (CoreId c : allowed) {
        if (c != msg.aff_core_id) continue;
        if (cpus.core(c).load() <= overload_backlog_) {
          ++hinted_;
          return c;
        }
        break;
      }
    }
    return fallback_->route(msg, allowed, cpus, now);
  }
  std::string_view name() const override { return "hybrid"; }

  u64 hinted_routes() const override { return hinted_; }

 private:
  u64 overload_backlog_;
  std::unique_ptr<InterruptRoutingPolicy> fallback_;
  u64 hinted_ = 0;
};

}  // namespace saisim::apic
