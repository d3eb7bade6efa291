// The canonical subsystem list, shared by the leveled logger (per-subsystem
// log levels, `SAISIM_LOG=net=debug,...`) and the cross-layer tracer
// (`--trace-filter=net,pfs`). One table so a subsystem name means the same
// thing to both observers.
#pragma once

#include <optional>
#include <string_view>

#include "util/types.hpp"

namespace saisim::util {

enum class Subsystem : u8 {
  kSim = 0,
  kMem,
  kCpu,
  kApic,
  kNet,
  kPfs,
  kSais,
  kWorkload,
  kCore,
  kSweep,
};
inline constexpr int kNumSubsystems = 10;

inline constexpr const char* kSubsystemNames[kNumSubsystems] = {
    "sim", "mem", "cpu", "apic", "net", "pfs", "sais", "workload", "core",
    "sweep",
};

inline std::optional<Subsystem> subsystem_from_name(std::string_view name) {
  for (int i = 0; i < kNumSubsystems; ++i) {
    if (name == kSubsystemNames[i]) return static_cast<Subsystem>(i);
  }
  return std::nullopt;
}

}  // namespace saisim::util
