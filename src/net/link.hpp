// A unidirectional link: FIFO serialization at a fixed bandwidth plus
// propagation latency. Contention (many servers funnelling into one client
// port) emerges from the serialization queue.
#pragma once

#include "sim/actor.hpp"
#include "util/units.hpp"

namespace saisim::net {

class Link : public sim::Actor {
 public:
  Link(sim::Simulation& simulation, Bandwidth bandwidth, Time latency)
      : Actor(simulation), bw_(bandwidth), latency_(latency) {}

  /// Transmit `wire_bytes`; `delivered` fires when the last bit arrives at
  /// the far end (store-and-forward semantics for the next hop). The
  /// callback is the event queue's own type, so a packet-carrying capture
  /// goes straight into the pooled slot — no intermediate std::function box
  /// per hop.
  void send(u64 wire_bytes, sim::EventQueue::Callback delivered) {
    const Time start = std::max(now(), busy_until_);
    const Time ser =
        bw_.is_unlimited() ? Time::zero() : bw_.transfer_time(wire_bytes);
    busy_until_ = start + ser;
    sim().at(busy_until_ + latency_, std::move(delivered));
  }

  Bandwidth bandwidth() const { return bw_; }

 private:
  Bandwidth bw_;
  Time latency_;
  Time busy_until_ = Time::zero();
};

}  // namespace saisim::net
