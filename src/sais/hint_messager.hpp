// HintMessager — SAIs client component #1 (paper §IV.A).
//
// Encapsulates the affinitive core id into every outgoing I/O request (the
// paper uses a PVFS_hint; on the wire it becomes the IP options word of
// Figure 4). Requests from cores beyond the 5-bit encoding range go out
// unstamped and will be routed by the fallback policy — the encoding limit
// is a real constraint of the design.
#pragma once

#include <optional>

#include "net/packet.hpp"

namespace saisim::sais {

class HintMessager {
 public:
  /// Stamp `hint` into the request packet's options field.
  static void stamp(net::Packet& request, std::optional<CoreId> hint) {
    if (!hint.has_value()) return;
    // A core id > 31 cannot be expressed in 5 bits: the request goes out
    // unstamped.
    if (const auto encoded = net::IpOptions::encode(*hint)) {
      request.ip_options = *encoded;
    }
  }
};

}  // namespace saisim::sais
