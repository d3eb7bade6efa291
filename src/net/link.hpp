// A unidirectional link: FIFO serialization at a fixed bandwidth plus
// propagation latency. Contention (many servers funnelling into one client
// port) emerges from the serialization queue.
#pragma once

#include "sim/actor.hpp"
#include "stats/summary.hpp"
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
    busy_accum_ += ser;
    queue_delay_.add((start - now()).microseconds());
    bytes_ += wire_bytes;
    sim().at(busy_until_ + latency_, std::move(delivered));
  }

  Bandwidth bandwidth() const { return bw_; }
  Time latency() const { return latency_; }
  u64 bytes_sent() const { return bytes_; }
  /// Cumulative serialization time (for utilisation = busy/elapsed).
  Time busy_time() const { return busy_accum_; }
  /// Queueing delay distribution in microseconds.
  const stats::Summary& queue_delay_us() const { return queue_delay_; }

 private:
  Bandwidth bw_;
  Time latency_;
  Time busy_until_ = Time::zero();
  Time busy_accum_ = Time::zero();
  u64 bytes_ = 0;
  stats::Summary queue_delay_;
};

}  // namespace saisim::net
