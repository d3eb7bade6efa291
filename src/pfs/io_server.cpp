#include "pfs/io_server.hpp"

#include <algorithm>

#include "pfs/protocol.hpp"
#include "trace/tracer.hpp"

namespace saisim::pfs {

IoServer::IoServer(sim::Simulation& simulation, net::Network& network,
                   NodeId self, IoServerConfig config,
                   BufferCacheConfig cache_config,
                   ServerSchedConfig sched_config)
    : Actor(simulation),
      network_(network),
      self_(self),
      cfg_(config),
      cache_cfg_(cache_config),
      sched_cfg_(sched_config),
      cache_(cache_config),
      cpu_(sched_config.enabled ? std::make_unique<ServerCpu>(
                                      simulation, sched_config.discipline)
                                : nullptr),
      request_cost_((cpu_ ? sched_config.irq_cost : Time::zero()) +
                    config.request_service),
      reply_cost_(cpu_ ? sched_config.reply_cost : Time::zero()),
      lookup_time_(cache_.enabled() ? cache_config.lookup_time : Time::zero()),
      write_back_(cache_.enabled() && cache_config.write_back),
      trace_phases_(cpu_ != nullptr || cache_.enabled()) {
  network_.set_receiver(self_,
                        [this](net::Packet p) { on_request(std::move(p)); });
}

namespace {

/// Coin-flip residency: hashed from the file offset, so whether a strip
/// "is cached" is a property of the data, not the policy.
bool coin_flip_hit(double ratio, u64 file_offset) {
  if (ratio <= 0.0) return false;
  u64 h = file_offset / 4096 + 0x9E3779B97F4A7C15ull;
  const u64 draw = splitmix64(h) % 10'000;
  return static_cast<double>(draw) < ratio * 10'000.0;
}

bool is_read(const net::Packet& msg) {
  return msg.kind == net::PacketKind::kPfsRequest;
}

}  // namespace

template <class K>
void IoServer::submit_cpu(Time cost, K k) {
  if (cpu_) {
    cpu_->submit(ServerCpu::Prio::kForeground, cost, std::move(k));
    return;
  }
  // No CPU model: the work completes after `cost` with no queueing. The
  // continuation computes future timestamps from done_at and schedules
  // absolute events, so running it inline is exact.
  k(now() + cost);
}

void IoServer::on_request(net::Packet msg) {
  if (is_read(msg)) {
    ++stats_.requests;
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerRecv,
                       now(), self_, -1, msg.request, msg.strip_index,
                       static_cast<i64>(msg.span_bytes));
  } else {
    SAISIM_CHECK_MSG(msg.kind == net::PacketKind::kPfsWriteData,
                     "unexpected packet kind at I/O server");
    ++stats_.write_requests;
  }
  const Time submitted = now();
  auto k = [this, submitted, msg = std::move(msg)](Time done_at) mutable {
    if (trace_phases_) {
      SAISIM_TRACE_EVENT(util::Subsystem::kPfs,
                         trace::EventType::kServerTaskRun, done_at, self_, -1,
                         msg.request, msg.strip_index,
                         (done_at - submitted - request_cost_).picoseconds());
    }
    const Time ready = is_read(msg) ? read_stage(msg, done_at)
                                    : write_stage(msg, done_at);
    finish(std::move(msg), ready);
  };
  static_assert(sizeof(k) <= ServerCpu::kDoneInlineBytes,
                "the request continuation must fit ServerCpu::Done inline");
  submit_cpu(request_cost_, std::move(k));
}

Time IoServer::read_stage(const net::Packet& req, Time done_at) {
  const Time resolved = done_at + lookup_time_;
  u64 miss_bytes = req.span_bytes;
  u64 forced = 0;
  u64 last_block = 0;
  if (cache_.enabled()) {
    const u64 bs = cache_.block_bytes();
    const u64 b0 = req.file_offset / bs;
    last_block = (req.file_offset + req.span_bytes - 1) / bs;
    u64 missing = 0;
    for (u64 blk = b0; blk <= last_block; ++blk) {
      if (!cache_.lookup_or_fill(blk, forced)) ++missing;
    }
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerCacheDone,
                       resolved, self_, -1, req.request,
                       static_cast<i64>(missing),
                       static_cast<i64>(last_block - b0 + 1));
    miss_bytes = missing * bs;
  } else if (coin_flip_hit(cfg_.cache_hit_ratio, req.file_offset)) {
    miss_bytes = 0;
  }
  Time ready = resolved;
  if (miss_bytes == 0) {
    ++stats_.cache_hits;  // full request served without the disk
  } else {
    write_back_victims(forced, resolved);
    ready = disk_busy(miss_bytes, resolved, /*charge_seek=*/true,
                      /*is_flush=*/false);
    if (trace_phases_) {
      SAISIM_TRACE_EVENT(util::Subsystem::kPfs,
                         trace::EventType::kServerDiskDone, ready, self_, -1,
                         req.request, static_cast<i64>(miss_bytes),
                         static_cast<i64>(forced));
    }
  }
  if (cache_.enabled()) maybe_readahead(req, last_block, ready);
  return ready;
}

Time IoServer::write_stage(const net::Packet& data, Time done_at) {
  const Time resolved = done_at + lookup_time_;
  if (cache_.enabled()) {
    // The strip lands in the cache: dirty under write-back, clean (but
    // resident for later reads) under write-through.
    const u64 bs = cache_.block_bytes();
    const u64 b1 = (data.file_offset + data.payload_bytes - 1) / bs;
    u64 forced = 0;
    for (u64 blk = data.file_offset / bs; blk <= b1; ++blk) {
      forced += cache_.insert(blk, write_back_, /*prefetched=*/false);
    }
    write_back_victims(forced, resolved);
  }
  if (write_back_) {
    // The ack goes out at cache speed; the flush daemon owns getting the
    // strip to the platter.
    maybe_arm_flush();
    return resolved;
  }
  // Write-through (PVFS's default sync semantics): the strip is written to
  // the serialized disk before the ack goes out.
  const Time ready = disk_busy(data.payload_bytes, resolved,
                               /*charge_seek=*/true, /*is_flush=*/false);
  if (trace_phases_) {
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerDiskDone,
                       ready, self_, -1, data.request,
                       static_cast<i64>(data.payload_bytes), 0);
  }
  return ready;
}

Time IoServer::disk_busy(u64 bytes, Time ready_at, bool charge_seek,
                         bool is_flush) {
  // The single spindle serializes all transfers — demand fills, forced
  // write-backs, flush bursts, and read-ahead all contend here.
  const Time io_time =
      (charge_seek ? cfg_.disk_seek : Time::zero()) +
      (cfg_.disk_bandwidth.is_unlimited()
           ? Time::zero()
           : cfg_.disk_bandwidth.transfer_time(bytes));
  const Time start = std::max(ready_at, disk_free_at_);
  disk_free_at_ = start + io_time;
  stats_.disk_busy_ps += io_time.picoseconds();
  if (is_flush) stats_.flush_disk_ps += io_time.picoseconds();
  return disk_free_at_;
}

void IoServer::write_back_victims(u64 forced, Time at) {
  // Nobody waits on these writes, but the transfers that follow queue
  // behind them on the spindle.
  if (forced > 0) {
    disk_busy(forced * cache_.block_bytes(), at, /*charge_seek=*/true,
              /*is_flush=*/true);
  }
}

void IoServer::maybe_readahead(const net::Packet& req, u64 last_block,
                               Time ready) {
  if (cache_cfg_.readahead_blocks <= 0) return;
  const u64 bs = cache_.block_bytes();
  const u64 b0 = req.file_offset / bs;
  const u64 span_blocks = last_block - b0 + 1;
  Stream& st = streams_[req.owner_process];
  // A stream advances by a fixed positive stride (strip striping makes it
  // num_servers strips wide from any one server's point of view). The
  // first advancing request establishes the stride; repeats confirm it.
  const bool advancing = st.streak > 0 && b0 > st.last_block;
  const u64 stride = advancing ? b0 - st.last_block : 0;
  const bool sequential = advancing && (st.stride == 0 || stride == st.stride);
  st.last_block = b0;
  st.stride = sequential ? stride : 0;
  st.streak = sequential ? st.streak + 1 : 1;
  if (!sequential) return;
  // Prefetch the next expected requests of the stream: whole strides
  // ahead, up to readahead_blocks blocks in total.
  u64 forced = 0;
  const u64 prefetched = cache_.readahead(
      b0, stride, span_blocks, static_cast<u64>(cache_cfg_.readahead_blocks),
      forced);
  if (prefetched == 0) return;
  write_back_victims(forced, ready);
  // The prefetch continues the stream right after the demand fill — no
  // extra seek — and occupies otherwise-idle disk time.
  disk_busy(prefetched * bs, ready, /*charge_seek=*/false, /*is_flush=*/false);
}

void IoServer::finish(net::Packet msg, Time ready) {
  // Reply build is CPU work too: on a modeled core it queues once the data
  // is ready, behind whatever else is running (including flush work under
  // FIFO — the convoy the priority discipline exists to avoid).
  sim().at(ready, [this, msg = std::move(msg)]() mutable {
    submit_cpu(reply_cost_, [this, msg = std::move(msg)](Time at) {
      send_reply(msg, at);
    });
  });
}

void IoServer::send_reply(const net::Packet& msg, Time at) {
  net::Packet reply;
  reply.id = next_packet_id_++;
  reply.src = self_;
  reply.dst = msg.src;
  reply.request = msg.request;
  reply.owner_process = msg.owner_process;
  reply.strip_index = msg.strip_index;
  // Read data lands in the request's buffer; acks in the client's control
  // scratch region.
  reply.dma_addr = msg.dma_addr;
  // HintCapsuler: echo the client's aff_core_id options word into every
  // reply packet.
  reply.ip_options = msg.ip_options;
  if (is_read(msg)) {
    stats_.bytes_served += msg.span_bytes;
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerSend,
                       at, self_, -1, msg.request, msg.strip_index,
                       static_cast<i64>(msg.span_bytes));
    reply.kind = net::PacketKind::kPfsData;
    reply.payload_bytes = msg.span_bytes;
    reply.file_offset = msg.file_offset;
    reply.span_bytes = msg.span_bytes;
  } else {
    stats_.bytes_written += msg.payload_bytes;
    reply.kind = net::PacketKind::kPfsWriteAck;
    reply.payload_bytes = kWriteAckBytes;
  }
  network_.send(std::move(reply));
}

// ---- Flush daemon --------------------------------------------------------

void IoServer::maybe_arm_flush() {
  if (cache_.dirty_blocks() == 0) return;
  if (!flush_armed_) {
    flush_armed_ = true;
    sim().after(cache_cfg_.flush_period, [this] { flush_tick(); });
  }
  const u64 threshold = static_cast<u64>(
      cache_cfg_.dirty_flush_threshold *
      static_cast<double>(cache_.num_blocks()));
  if (cache_.dirty_blocks() >= threshold && !flush_urgent_) {
    // Dirty high-water mark: burst immediately instead of waiting for the
    // periodic tick. Scheduled (not inline) so the burst is its own event
    // on this server's shard and never reorders the current one.
    flush_urgent_ = true;
    sim().after(Time::zero(), [this] {
      flush_urgent_ = false;
      do_flush_burst();
      maybe_arm_flush();
    });
  }
}

void IoServer::flush_tick() {
  flush_armed_ = false;
  do_flush_burst();
  // Re-arm only while dirty blocks remain — the daemon goes quiescent on a
  // clean cache, so an idle server's event queue drains.
  maybe_arm_flush();
}

void IoServer::do_flush_burst() {
  const u64 n = cache_.take_dirty(static_cast<u64>(cache_cfg_.flush_batch));
  if (n == 0) return;
  ++stats_.flush_bursts;
  const Time end = disk_busy(n * cache_.block_bytes(), now(),
                             /*charge_seek=*/true, /*is_flush=*/true);
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kServerFlush,
                     now(), self_, -1, -1, static_cast<i64>(n),
                     (end - now()).picoseconds());
  if (cpu_) {
    cpu_->submit(ServerCpu::Prio::kBackground, sched_cfg_.flush_cpu_cost,
                 nullptr);
  }
}

}  // namespace saisim::pfs
