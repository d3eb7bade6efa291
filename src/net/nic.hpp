// The client-side NIC: DMA, RX rings, interrupt coalescing, and the hook
// point where the SAIs SrcParser runs (the paper modifies the NIC driver to
// parse the IP options field *before* the interrupt message is composed).
//
// Each interrupt message owns the packet batch it announces, so the chosen
// core processes exactly the packets whose hint routed the interrupt there
// (per-packet steering, as in the paper). The RX ring bounds how many
// received-but-unprocessed packets may be outstanding; overruns drop.
#pragma once

#include <optional>
#include <vector>

#include "apic/io_apic.hpp"
#include "mem/memory_system.hpp"
#include "net/network.hpp"
#include "util/reflect.hpp"
#include "util/small_function.hpp"

namespace saisim::net {

struct NicConfig {
  /// RX queues (a bonded 3x1G NIC exposes 3; irqbalance spreads vectors).
  int queues = 1;
  u64 ring_capacity = 1024;
  /// Driver + TCP/IP stack cost per received message.
  Cycles per_packet_cycles{3000};
  /// Protocol processing cost per payload byte, in hundredths of a cycle
  /// (checksum + skb-to-user copy instruction overhead; the *memory* cost of
  /// that copy is priced separately through the cache model).
  i64 per_byte_centicycles = 40;
  apic::Vector vector_base = 64;
  /// Block-local re-touches per payload line during protocol processing
  /// (checksum read then copy write hit the same line back-to-back).
  int touch_reuse = 1;
  /// Messages merged into one interrupt per queue (1 = interrupt per strip
  /// message, the paper's granularity; >1 exercised by the coalescing
  /// ablation; batches use the first packet's hint).
  int coalesce_count = 1;
  /// rx-usecs companion timer: a partial batch is flushed this long after
  /// its first packet arrived, so coalescing never strands the tail of a
  /// burst.
  Time coalesce_timeout = Time::us(50);
};

template <class V>
void describe(V& v, NicConfig& c) {
  namespace r = util::reflect;
  v.field("queues", c.queues, r::in_range(1, 64));
  v.field("ring_capacity", c.ring_capacity, r::positive(), "packets");
  v.field("per_packet_cycles", c.per_packet_cycles, r::non_negative());
  v.field("per_byte_centicycles", c.per_byte_centicycles, r::non_negative(),
          "centicycles");
  v.field("vector_base", c.vector_base, r::in_range(0, 255));
  v.field("touch_reuse", c.touch_reuse, r::non_negative());
  v.field("coalesce_count", c.coalesce_count, r::positive());
  v.field("coalesce_timeout", c.coalesce_timeout, r::non_negative());
}

struct NicStats {
  u64 rx_messages = 0;
  u64 rx_bytes = 0;
  u64 dropped = 0;
  u64 interrupts = 0;
};

/// Counter rows (`nic.*`).
template <class V>
void describe(V& v, NicStats& s) {
  v.field("rx_messages", s.rx_messages);
  v.field("rx_bytes", s.rx_bytes);
  v.field("rx_dropped", s.dropped);
  v.field("interrupts", s.interrupts);
}

class ClientNic : public sim::Actor {
 public:
  /// Parses a source-aware hint out of a packet; installed by the SAIs
  /// stack. When absent (plain kernel), every interrupt carries no hint.
  using HintParser = SmallFunction<std::optional<CoreId>(const Packet&)>;
  /// Invoked on the softirq core after protocol processing of each packet.
  using RxHandler = SmallFunction<void(const Packet&, CoreId handler, Time)>;

  ClientNic(sim::Simulation& simulation, Network& network, NodeId self,
            apic::IoApic& io_apic, mem::MemorySystem& memory, Frequency freq,
            NicConfig config);

  NodeId node() const { return self_; }
  const NicStats& stats() const { return stats_; }

  /// Packets received but not yet softirq-processed, summed over queues —
  /// the NIC/softirq backlog gauge the telemetry sampler reads.
  u64 rx_backlog() const {
    u64 n = 0;
    for (const Queue& q : queues_) n += q.pending.size() + q.outstanding;
    return n;
  }

  void set_hint_parser(HintParser parser) { hint_parser_ = std::move(parser); }
  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

 private:
  struct Queue {
    std::vector<Packet> pending;  // awaiting the next interrupt raise
    u64 outstanding = 0;          // received but not yet softirq-processed
    sim::EventHandle flush_timer;
  };

  /// A raised interrupt's packet batch, pooled. The softirq cost and the
  /// completion hook both need the packets; the old code shared them via a
  /// make_shared<vector<Packet>> per interrupt — one control block plus one
  /// buffer allocation each time. Slots recycle both: the vector's capacity
  /// is retained across interrupts and swap()ed with the queue's pending
  /// list, so the steady state allocates nothing. The slot is released by
  /// the on_handled closure, which the core runs exactly once per work item.
  struct BatchSlot {
    std::vector<Packet> packets;
    u32 next_free = 0xFFFFFFFFu;
  };

  void on_network_deliver(Packet p);
  void enqueue(Packet p);
  int queue_of(const Packet& p) const;
  void raise_interrupt(int queue);
  u32 acquire_batch();
  void release_batch(u32 id);

  Network& network_;
  NodeId self_;
  apic::IoApic& io_apic_;
  mem::MemorySystem& memory_;
  Frequency freq_;
  NicConfig cfg_;

  std::vector<Queue> queues_;
  std::vector<std::unique_ptr<BatchSlot>> batch_pool_;
  u32 batch_free_ = 0xFFFFFFFFu;
  HintParser hint_parser_;
  RxHandler rx_handler_;
  NicStats stats_;
};

}  // namespace saisim::net
