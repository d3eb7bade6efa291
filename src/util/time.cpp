#include "util/time.hpp"

#include <cstdio>

namespace saisim {

std::string Time::to_string() const {
  char buf[64];
  const i64 v = ps_;
  if (v >= 1'000'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.6gs", seconds());
  } else if (v >= 1'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.6gms", milliseconds());
  } else if (v >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.6gus", microseconds());
  } else if (v >= 1'000) {
    std::snprintf(buf, sizeof buf, "%.6gns", static_cast<double>(v) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lldps", static_cast<long long>(v));
  }
  return buf;
}

std::ostream& operator<<(std::ostream& os, Time t) { return os << t.to_string(); }

}  // namespace saisim
