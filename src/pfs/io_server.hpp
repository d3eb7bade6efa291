// One PVFS I/O server: receives per-strip read requests, resolves them
// against its buffer cache, reads misses from its disk (serialized, seek +
// transfer), and sends the data back. The HintCapsuler step copies the
// request's SAIs hint into the IP options of every reply packet — the
// paper's server-side modification.
//
// The server is layered when the optional depth is enabled:
//   * server.cache.* (BufferCache) — set-associative block cache with
//     write-back + background flush daemon and sequential read-ahead;
//   * server.sched.* (ServerCpu) — request parse / cache resolution /
//     reply build / flush work as queued tasks on one modeled core.
// Both default off; the server then runs the legacy thin model (fixed
// request_service, probabilistic cache_hit_ratio, synchronous write-
// through) with bit-identical event timing.
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
  /// Legacy probabilistic cache model: fraction of reads served from the
  /// buffer cache (skip disk), drawn content-addressed from the file
  /// offset. Subsumed by server.cache.* — ignored once capacity_bytes > 0.
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
  /// Request-level full cache hits: legacy coin-flip hits, or (with the
  /// real cache) reads whose every block was resident.
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

  /// Degrade this server (adds to every disk access) — failure injection.
  void set_slowdown(Time extra_per_request) { slowdown_ = extra_per_request; }

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

  bool deep() const { return cache_.enabled() || sched_cfg_.enabled; }

  void on_request(net::Packet req);
  void on_read_request(net::Packet req);
  void on_write_data(net::Packet data);
  Time disk_occupy(u64 bytes, Time ready_at, bool may_cache, u64 file_offset);

  // Layered pipeline (deep mode only).
  void deep_read(net::Packet req);
  void deep_write(net::Packet data);
  /// CPU stage: run `k(done_at)` after `cost` of foreground CPU work —
  /// queued on the modeled core when the scheduler is on, charged inline
  /// otherwise.
  void submit_cpu(Time cost, ServerCpu::Done k);
  /// Raw spindle occupancy: serialize `bytes` (plus an optional seek)
  /// starting no earlier than ready_at; returns the completion time.
  Time disk_busy(u64 bytes, Time ready_at, bool charge_seek, bool is_flush);
  void maybe_readahead(const net::Packet& req, u64 last_block, Time ready);
  void send_read_reply(const net::Packet& req, Time at);
  void send_write_ack(const net::Packet& data, Time at);
  /// Schedule the reply-build stage once the data is ready at `ready`.
  void finish(net::Packet msg, Time ready, bool is_read);

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
  /// Built only under server.sched.enabled: without it no task is ever
  /// submitted, so thin and cache-only servers carry no idle run queues.
  std::unique_ptr<ServerCpu> cpu_;
  Time disk_free_at_ = Time::zero();
  Time slowdown_ = Time::zero();
  IoServerStats stats_;
  u64 next_packet_id_ = 1;
  std::map<ProcessId, Stream> streams_;
  bool flush_armed_ = false;
  bool flush_urgent_ = false;
};

}  // namespace saisim::pfs
