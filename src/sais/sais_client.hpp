// The assembled SAIs client stack (paper §IV, Figure 3).
//
// Component map, paper -> this codebase:
//   HintMessager  -> sais::HintMessager, installed as the PfsClient's
//                    request decorator (step 1-2 of Figure 3);
//   HintCapsuler  -> server side, pfs::IoServer echoes the options word
//                    into every reply data packet (step 3);
//   SrcParser     -> sais::SrcParser, installed as the NIC's hint parser
//                    (step 4);
//   IMComposer    -> apic::SourceAwarePolicy: the I/O APIC composes the
//                    interrupt message with aff_core_id as the destination
//                    local-APIC address (steps 5-6).
//
// SAIs additionally bundles the requesting process to its core for the
// duration of blocking I/O; in this simulator processes are placed once
// and never migrate (the paper notes migration during blocking I/O is
// rare), so the pin is implicit.
#pragma once

#include <optional>

#include "net/nic.hpp"
#include "pfs/pfs_client.hpp"
#include "sais/hint_messager.hpp"
#include "sais/src_parser.hpp"

namespace saisim::sais {

/// Install the SAIs components onto an existing client stack.
inline void install(pfs::PfsClient& client, net::ClientNic& nic) {
  client.set_request_decorator(
      [](net::Packet& p, std::optional<CoreId> hint) {
        HintMessager::stamp(p, hint);
      });
  nic.set_hint_parser([](const net::Packet& p) { return SrcParser::parse(p); });
}

}  // namespace saisim::sais
