// The PVFS metadata server: answers open/layout lookups. One instance per
// file system (the paper's setup used one metadata node beside 8-48 I/O
// nodes).
//
// Two service models, both with a fixed per-lookup service_time:
//   * serialize = false (default): every lookup completes service_time
//     after arrival, concurrent lookups overlap freely — the legacy
//     unqueued model, kept bit-exact for the goldens;
//   * serialize = true: one service queue — concurrent opens line up and
//     metadata saturation produces natural stragglers (each queued lookup
//     is traced with its queue depth and wait).
#pragma once

#include <algorithm>

#include "net/network.hpp"
#include "pfs/protocol.hpp"
#include "sim/actor.hpp"
#include "trace/tracer.hpp"
#include "util/reflect.hpp"

namespace saisim::pfs {

struct MetaServerConfig {
  /// CPU + storage time to resolve one open/layout lookup.
  Time service_time = Time::us(50);
  /// Single-queue model: lookups serialize through one service slot.
  bool serialize = false;
};

template <class V>
void describe(V& v, MetaServerConfig& c) {
  namespace r = util::reflect;
  v.field("service_time", c.service_time, r::non_negative());
  v.field("serialize", c.serialize);
}

/// Counter rows, published under `meta.`.
struct MetaServerStats {
  u64 lookups = 0;
  /// Total time lookups waited for the service slot (serialize = true).
  i64 queue_wait_ps = 0;
  u64 max_queue_depth = 0;
};

template <class V>
void describe(V& v, MetaServerStats& s) {
  v.field("lookups", s.lookups);
  v.field("queue_wait_ps", s.queue_wait_ps);
  v.maximum("max_queue_depth", s.max_queue_depth);
}

class MetaServer : public sim::Actor {
 public:
  MetaServer(sim::Simulation& simulation, net::Network& network, NodeId self,
             MetaServerConfig config = {})
      : Actor(simulation), network_(network), self_(self), cfg_(config) {
    network_.set_receiver(self_, [this](net::Packet p) {
      SAISIM_CHECK(p.kind == net::PacketKind::kMetaRequest);
      on_lookup(std::move(p));
    });
  }

  const MetaServerStats& stats() const { return stats_; }

 private:
  void on_lookup(net::Packet p) {
    ++stats_.lookups;
    Time done;
    if (cfg_.serialize) {
      const Time start = std::max(now(), busy_until_);
      stats_.queue_wait_ps += (start - now()).picoseconds();
      ++pending_;
      stats_.max_queue_depth = std::max(stats_.max_queue_depth, pending_);
      done = start + cfg_.service_time;
      busy_until_ = done;
      SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kMetaLookup,
                         now(), self_, -1, p.request,
                         static_cast<i64>(pending_),
                         (start - now()).picoseconds());
    } else {
      done = now() + cfg_.service_time;
    }
    sim().at(done, [this, p = std::move(p)]() mutable {
      if (cfg_.serialize && pending_ > 0) --pending_;
      net::Packet reply;
      reply.id = next_id_++;
      reply.kind = net::PacketKind::kMetaReply;
      reply.src = self_;
      reply.dst = p.src;
      reply.request = p.request;
      reply.owner_process = p.owner_process;
      reply.payload_bytes = kMetaReplyBytes;  // layout descriptor
      reply.dma_addr = p.dma_addr;
      network_.send(std::move(reply));
    });
  }

  net::Network& network_;
  NodeId self_;
  MetaServerConfig cfg_;
  Time busy_until_ = Time::zero();
  MetaServerStats stats_;
  u64 pending_ = 0;
  u64 next_id_ = 1;
};

}  // namespace saisim::pfs
