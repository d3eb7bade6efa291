// Minimal leveled logger with per-subsystem levels.
//
// Logging is off by default (simulations emit millions of events); tests and
// examples flip the level when tracing a scenario. Levels are per subsystem
// (util/subsystem.hpp) and settable from a spec string — either a bare level
// applied to every subsystem or a comma list of `subsys=level` entries, with
// the two forms mixable ("warn,net=debug,pfs=trace"). The spec arrives from
// the `SAISIM_LOG` environment variable or the shared `--log-level` flag
// (sweep/cli.hpp).
//
// Not thread-safe by design: the DES core is single-threaded, and binaries
// configure levels before handing work to the sweep runner's threads.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/subsystem.hpp"

namespace saisim {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kOff = 4 };

/// Parses "trace" | "debug" | "info" | "warn" | "off".
std::optional<LogLevel> log_level_from_name(std::string_view name);

class Log {
 public:
  static LogLevel level(util::Subsystem s = util::Subsystem::kCore) {
    return levels_[static_cast<int>(s)];
  }
  /// Sets every subsystem to `lvl`.
  static void set_level(LogLevel lvl);
  static void set_level(util::Subsystem s, LogLevel lvl) {
    levels_[static_cast<int>(s)] = lvl;
  }
  static bool enabled(util::Subsystem s, LogLevel lvl) {
    return lvl >= levels_[static_cast<int>(s)];
  }
  static bool enabled(LogLevel lvl) {
    return enabled(util::Subsystem::kCore, lvl);
  }

  /// Applies a spec string ("debug" or "net=debug,pfs=trace" or a mix).
  /// Returns an error message on a malformed entry (levels already applied
  /// from earlier entries stay applied), or nullopt on success. An empty
  /// spec is a no-op success.
  static std::optional<std::string> configure(std::string_view spec);

  /// Applies the SAISIM_LOG environment variable, if set. A malformed value
  /// warns on stderr rather than aborting the host binary.
  static void init_from_env();

  static void write(util::Subsystem s, LogLevel lvl, const std::string& msg);
  static void write(LogLevel lvl, const std::string& msg) {
    write(util::Subsystem::kCore, lvl, msg);
  }

 private:
  static LogLevel levels_[util::kNumSubsystems];
};

}  // namespace saisim

/// Leveled, subsystem-tagged log statement; the stream expression is only
/// evaluated when the subsystem's level admits it.
#define SAISIM_LOG_AT(subsys, lvl, stream_expr)             \
  do {                                                      \
    if (::saisim::Log::enabled(subsys, lvl)) {              \
      std::ostringstream saisim_log_os;                     \
      saisim_log_os << stream_expr;                         \
      ::saisim::Log::write(subsys, lvl, saisim_log_os.str()); \
    }                                                       \
  } while (0)

// The un-tagged macro logs under the "core" subsystem.
#define SAISIM_LOG(lvl, stream_expr) \
  SAISIM_LOG_AT(::saisim::util::Subsystem::kCore, lvl, stream_expr)
