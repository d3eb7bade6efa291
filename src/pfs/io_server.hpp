// One PVFS I/O server: receives per-strip read requests and write data and
// answers each with one reply. The HintCapsuler step copies the request's
// SAIs hint into the IP options of every reply packet — the paper's
// server-side modification.
//
// Every request runs one pipeline: CPU stage -> residency -> disk -> reply.
//   * CPU stage: irq_cost + request_service, queued on the modeled core
//     (ServerCpu) under server.sched.enabled, else charged inline with no
//     queueing. irq_cost, reply_cost and flush_cpu_cost exist only on a
//     modeled core.
//   * Residency: the hashed cache_hit_ratio coin flip while
//     server.cache.capacity_bytes == 0, else the BufferCache (lookup_time,
//     forced dirty write-backs, sequential read-ahead). Writes land in the
//     cache dirty under write-back, clean under write-through.
//   * Disk: one serialized spindle (seek + transfer) for read misses and
//     write-through writes; under write-back the ack leaves at cache speed
//     and a flush daemon writes dirty blocks out.
//   * Reply: reply_cost on the modeled core, then the reply is sent.
// With neither cache nor scheduler (the default thin server) a request
// costs one scheduled event and records no sub-phase trace milestones.
#pragma once

#include <map>
#include <memory>

#include "net/network.hpp"
#include "pfs/buffer_cache.hpp"
#include "pfs/server_sched.hpp"
#include "sim/actor.hpp"
#include "stats/summary.hpp"
#include "util/reflect.hpp"
#include "util/units.hpp"

namespace saisim::pfs {

struct IoServerConfig {
  /// Sequential throughput of the server's data disk. IOR streams
  /// sequentially, so the default models a 7.2K SATA drive's streaming rate.
  Bandwidth disk_bandwidth = Bandwidth::mb_per_sec(90);
  /// Positioning cost charged per strip request. Non-zero by default: with
  /// several IOR processes striping distinct files over the same spindles,
  /// consecutive strip reads seek between files.
  Time disk_seek = Time::ms(1);
  /// Server CPU time to parse a request and build the reply.
  Time request_service = Time::us(20);
  /// Coin-flip residency for a server without a buffer cache: fraction of
  /// reads served without a disk access, drawn content-addressed from the
  /// file offset. Exclusive with server.cache.capacity_bytes > 0.
  double cache_hit_ratio = 0.0;
};

template <class V>
void describe(V& v, IoServerConfig& c) {
  namespace r = util::reflect;
  // The disk serialises transfers through Bandwidth::transfer_time, which
  // requires a finite (non-zero) rate.
  v.field("disk_bandwidth", c.disk_bandwidth, r::positive(), "B/s");
  v.field("disk_seek", c.disk_seek, r::non_negative());
  v.field("request_service", c.request_service, r::non_negative());
  v.field("cache_hit_ratio", c.cache_hit_ratio, r::unit_interval());
}

struct IoServerStats {
  u64 requests = 0;
  u64 bytes_served = 0;
  /// Request-level full cache hits: coin-flip hits, or (with the buffer
  /// cache) reads whose every block was resident.
  u64 cache_hits = 0;
  u64 write_requests = 0;
  u64 bytes_written = 0;
  /// Background flush-daemon bursts issued (write-back mode only).
  u64 flush_bursts = 0;
  /// Total disk occupancy, and the slice of it spent on flush-daemon and
  /// forced write-backs (the per-server "flush share of disk time").
  i64 disk_busy_ps = 0;
  i64 flush_disk_ps = 0;
};

class IoServer : public sim::Actor {
 public:
  IoServer(sim::Simulation& simulation, net::Network& network, NodeId self,
           IoServerConfig config, BufferCacheConfig cache_config = {},
           ServerSchedConfig sched_config = {});

  NodeId node() const { return self_; }
  const IoServerStats& stats() const { return stats_; }
  const BufferCache& cache() const { return cache_; }
  const ServerCpu::Stats& cpu_stats() const {
    static const ServerCpu::Stats kIdle{};
    return cpu_ ? cpu_->stats() : kIdle;
  }
  /// Instantaneous scheduler depth (queued + running) for telemetry gauges.
  u64 cpu_queue_depth() const { return cpu_ ? cpu_->depth() : 0; }

 private:
  /// Per-process stream detector for read-ahead. A striped file shows up
  /// at one server as an arithmetic progression of block numbers (stride =
  /// num_servers * strip blocks; 1 server = contiguous), so the detector
  /// tracks the stride rather than assuming adjacency.
  struct Stream {
    u64 last_block = 0;  // first block of the previous request
    u64 stride = 0;      // confirmed inter-request stride (0 = unknown)
    int streak = 0;
  };

  void on_request(net::Packet msg);
  /// Residency and disk stages of a read / a write whose CPU stage ended
  /// at `done_at`; each returns when the reply's data is ready.
  Time read_stage(const net::Packet& req, Time done_at);
  Time write_stage(const net::Packet& data, Time done_at);
  /// CPU stage: run `k(done_at)` after `cost` of foreground work — queued
  /// on the modeled core when there is one, called inline at now() + cost
  /// otherwise.
  template <class K>
  void submit_cpu(Time cost, K k);
  /// Raw spindle occupancy: serialize `bytes` (plus an optional seek)
  /// starting no earlier than ready_at; returns the completion time.
  Time disk_busy(u64 bytes, Time ready_at, bool charge_seek, bool is_flush);
  /// Write `forced` dirty victims back before their frames are reused.
  void write_back_victims(u64 forced, Time at);
  void maybe_readahead(const net::Packet& req, u64 last_block, Time ready);
  /// Reply stage: once the data is ready at `ready`, build the reply
  /// (reply_cost on a modeled core) and send it.
  void finish(net::Packet msg, Time ready);
  void send_reply(const net::Packet& msg, Time at);

  // Flush daemon (write-back mode).
  void maybe_arm_flush();
  void flush_tick();
  void do_flush_burst();

  net::Network& network_;
  NodeId self_;
  IoServerConfig cfg_;
  BufferCacheConfig cache_cfg_;
  ServerSchedConfig sched_cfg_;
  BufferCache cache_;
  /// Built only under server.sched.enabled, so servers without a modeled
  /// core carry no idle run queues.
  std::unique_ptr<ServerCpu> cpu_;
  /// Per-stage costs, resolved once: irq_cost and reply_cost count only on
  /// a modeled core, lookup_time only with a buffer cache.
  Time request_cost_;
  Time reply_cost_;
  Time lookup_time_;
  bool write_back_;
  /// Only a server with a modeled stage (core or cache) records the
  /// sub-phase milestones kServerTaskRun / kServerCacheDone /
  /// kServerDiskDone; a thin server's event stream is receive and send.
  bool trace_phases_;
  Time disk_free_at_ = Time::zero();
  IoServerStats stats_;
  u64 next_packet_id_ = 1;
  std::map<ProcessId, Stream> streams_;
  bool flush_armed_ = false;
  bool flush_urgent_ = false;
};

}  // namespace saisim::pfs
