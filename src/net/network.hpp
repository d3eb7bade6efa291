// The cluster fabric: every node hangs off one switch with a full-duplex
// link (uplink to the switch, downlink from it). A message serializes on the
// sender's uplink, crosses the switch (store-and-forward, fixed forwarding
// latency), then serializes on the receiver's downlink — which is where the
// paper's "client NIC bottleneck" forms when many I/O servers reply at once.
//
// Sharded operation: each node is homed on one simulation shard — its
// links, its receiver, and everything it schedules live on that shard's
// event queue. The switch hop needs no execution site of its own: the
// uplink-completion event (source shard, time t) forwards the packet as a
// message effective at t + switch_latency, which starts the destination
// downlink. When source and destination share a shard that is a plain
// same-queue schedule (byte-identical to the serial kernel); otherwise it
// becomes a conservative cross-shard post through the Engine — the switch
// latency is exactly the lookahead every cross-shard edge must carry.
#pragma once

#include <memory>
#include <vector>

#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"
#include "util/small_function.hpp"

namespace saisim::net {

class Network {
 public:
  /// Per-node delivery sink. SmallFunction: receivers are registered once
  /// per node and invoked once per packet — neither the registration nor
  /// the call should ever touch the heap.
  using Receiver = SmallFunction<void(Packet)>;

  /// Nodes home on the shard given to add_node; cross-shard forwarding
  /// goes through `engine.post` under its lookahead contract. On a 1-shard
  /// engine every forward is a plain same-queue schedule.
  explicit Network(sim::Engine& engine, Time switch_latency = Time::us(5))
      : engine_(engine), switch_latency_(switch_latency) {}

  /// Attach a node; `up`/`down` are the node's NIC rates towards/from the
  /// switch (a bonded 3x1-Gigabit client is modelled as a 3 Gb/s link).
  /// `shard` picks the node's home shard.
  NodeId add_node(Bandwidth up, Bandwidth down,
                  Time link_latency = Time::us(2), int shard = 0) {
    nodes_.push_back(std::make_unique<Node>(engine_.shard(shard), shard, up,
                                            down, link_latency));
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  void set_receiver(NodeId node, Receiver r) {
    at(node).receiver = std::move(r);
  }

  /// One injector per shard, each judging the sends of the nodes homed
  /// there in shard-local order with its own RNG stream — deterministic at
  /// a fixed shard count regardless of thread timing. An empty list (the
  /// default) is the lossless fabric: the send path then costs exactly one
  /// empty-check over the pre-injector code.
  void set_fault_injectors(std::vector<FaultInjector*> per_shard) {
    SAISIM_CHECK(per_shard.empty() ||
                 static_cast<int>(per_shard.size()) == engine_.num_shards());
    faults_by_shard_ = std::move(per_shard);
  }

  /// Send a packet from `p.src` to `p.dst`. Delivery invokes the
  /// destination's receiver after both serializations and latencies (plus
  /// whatever extra fate the fault injector decides, when one is attached).
  /// Must be called from the source node's home shard (or outside rounds).
  void send(Packet p) {
    SAISIM_CHECK(p.src >= 0 && p.src < num_nodes());
    SAISIM_CHECK(p.dst >= 0 && p.dst < num_nodes());
    Node& src = at(p.src);
    SAISIM_CHECK_MSG(sim::Engine::current_rank() == -1 ||
                         sim::Engine::current_rank() == src.rank,
                     "Network::send from a shard that does not own the "
                     "source node");
    if (FaultInjector* faults = injector_for(src.rank)) {
      const Time now = src.sim.now();
      const Bandwidth down = at(p.dst).downlink.bandwidth();
      const Time ser = down.is_unlimited()
                           ? Time::zero()
                           : down.transfer_time(p.wire_bytes());
      const FaultInjector::Verdict v = faults->judge(p, now, ser);
      if (v.drop) {
        SAISIM_TRACE_EVENT(util::Subsystem::kNet,
                           trace::EventType::kNetFaultDrop, now, p.src, -1,
                           p.request, static_cast<i64>(p.kind),
                           static_cast<i64>(p.dst));
        return;  // lost before it ever reaches the sender's uplink
      }
      if (v.duplicate) {
        SAISIM_TRACE_EVENT(util::Subsystem::kNet,
                           trace::EventType::kNetFaultDup, now, p.src, -1,
                           p.request, static_cast<i64>(p.kind),
                           static_cast<i64>(p.dst),
                           v.dup_delay.picoseconds());
        deliver(p, v.dup_delay);  // a second, independently delayed copy
      }
      if (v.delay > Time::zero()) {
        SAISIM_TRACE_EVENT(util::Subsystem::kNet,
                           trace::EventType::kNetFaultDelay, now, p.src, -1,
                           p.request, static_cast<i64>(p.kind),
                           static_cast<i64>(p.dst), v.delay.picoseconds());
        deliver(std::move(p), v.delay);
        return;
      }
    }
    start_uplink(std::move(p));
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Packets launched but not yet delivered. Each node counts launches
  /// (source shard) and deliveries (destination shard) separately, so the
  /// difference is only meaningful when the fabric is quiesced — which is
  /// when callers (tests, end-of-run assertions) read it.
  u64 packets_in_flight() const {
    u64 launched = 0;
    u64 delivered = 0;
    for (const auto& n : nodes_) {
      launched += n->launched;
      delivered += n->delivered;
    }
    return launched - delivered;
  }

 private:
  struct Node {
    Node(sim::Simulation& s, int shard_rank, Bandwidth up, Bandwidth down,
         Time latency)
        : sim(s),
          rank(shard_rank),
          uplink(s, up, latency),
          downlink(s, down, latency) {}
    sim::Simulation& sim;  // home shard: links + receiver live here
    int rank;
    Link uplink;
    Link downlink;
    Receiver receiver;
    u64 launched = 0;   // written only by the home (source) shard
    u64 delivered = 0;  // written only by the home (destination) shard
  };

  Node& at(NodeId n) {
    SAISIM_CHECK(n >= 0 && n < num_nodes());
    return *nodes_[static_cast<u64>(n)];
  }

  FaultInjector* injector_for(int rank) const {
    if (faults_by_shard_.empty()) return nullptr;
    return faults_by_shard_[static_cast<u64>(rank)];
  }

  /// Hand the packet to its source uplink — the lossless path, byte-for-byte
  /// the pre-injector `send` body.
  void start_uplink(Packet p) {
    const u64 wire = p.wire_bytes();
    Node& src = at(p.src);
    ++src.launched;
    src.uplink.send(wire, [this, p = std::move(p), wire]() mutable {
      forward_through_switch(std::move(p), wire);
    });
  }

  /// Arrived at the switch (an event on the source shard); forward after
  /// the fabric latency. Same shard: a plain schedule, exactly the serial
  /// kernel's `after(switch_latency)`. Cross shard: a conservative post —
  /// effect time now + switch_latency >= now + lookahead by construction.
  void forward_through_switch(Packet p, u64 wire) {
    Node& src = at(p.src);
    Node& dst = at(p.dst);
    const Time when = src.sim.now() + switch_latency_;
    auto deliver_leg = [this, p = std::move(p), wire]() mutable {
      Node& d = at(p.dst);
      d.downlink.send(wire, [this, p = std::move(p)]() mutable {
        Node& dd = at(p.dst);
        ++dd.delivered;
        SAISIM_CHECK_MSG(static_cast<bool>(dd.receiver),
                         "packet delivered to node with no receiver");
        dd.receiver(std::move(p));
      });
    };
    if (&src.sim == &dst.sim) {
      src.sim.at(when, std::move(deliver_leg));
    } else {
      engine_.post(src.rank, dst.rank, when, std::move(deliver_leg));
    }
  }

  /// Enter the lossless path after an injector-imposed hold-off.
  void deliver(Packet p, Time extra_delay) {
    if (extra_delay <= Time::zero()) {
      start_uplink(std::move(p));
      return;
    }
    Node& src = at(p.src);
    src.sim.after(extra_delay, [this, p = std::move(p)]() mutable {
      start_uplink(std::move(p));
    });
  }

  sim::Engine& engine_;
  Time switch_latency_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<FaultInjector*> faults_by_shard_;
};

}  // namespace saisim::net
