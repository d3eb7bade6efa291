// SrcParser — SAIs client component #2 (paper §IV.A).
//
// Runs in the NIC device driver before the interrupt message is composed:
// parses the incoming packet's IP options field and extracts the
// aff_core_id the interrupt should be delivered to. Malformed or absent
// options yield no hint (the packet is then routed source-unaware).
#pragma once

#include <optional>

#include "net/packet.hpp"

namespace saisim::sais {

class SrcParser {
 public:
  static std::optional<CoreId> parse(const net::Packet& p) {
    if (!p.ip_options.has_value()) return std::nullopt;
    return net::IpOptions::parse(*p.ip_options);
  }
};

}  // namespace saisim::sais
