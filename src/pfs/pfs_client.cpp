#include "pfs/pfs_client.hpp"

#include <algorithm>
#include <utility>

#include "trace/tracer.hpp"
#include "util/log.hpp"

namespace saisim::pfs {

PfsClient::PfsClient(sim::Simulation& simulation, net::Network& network,
                     net::ClientNic& nic, NodeId self, StripeLayout layout,
                     std::vector<NodeId> server_nodes, NodeId meta_node,
                     mem::AddressSpace& address_space, PfsClientConfig config,
                     ClientSchedConfig sched_config)
    : Actor(simulation),
      network_(network),
      nic_(nic),
      self_(self),
      layout_(std::move(layout)),
      servers_(std::move(server_nodes)),
      meta_node_(meta_node),
      address_space_(address_space),
      cfg_(config),
      sched_cfg_(sched_config) {
  SAISIM_CHECK(static_cast<int>(servers_.size()) == layout_.num_servers());
  if (client_sched_enabled(sched_cfg_)) {
    sched_ = std::make_unique<StragglerScheduler>(sched_cfg_, servers_.size());
  }
  control_scratch_ = address_space_.allocate(4096);
  nic_.set_rx_handler([this](const net::Packet& p, CoreId handler, Time at) {
    on_rx(p, handler, at);
  });
}

StripSpan* PfsClient::alloc_span_block(u32 nspans) {
  auto* spans =
      static_cast<StripSpan*>(arena_.allocate(span_block_bytes(nspans)));
  u64* bits = bits_of(spans, nspans);
  for (u64 w = 0; w < bitmap_words(nspans); ++w) bits[w] = 0;
  return spans;
}

void PfsClient::release_span_block(StripSpan* spans, u32 nspans) {
  arena_.release(spans, span_block_bytes(nspans));
}

PfsClient::StripCtl* PfsClient::alloc_ctl_block(u32 nspans) {
  auto* ctl =
      static_cast<StripCtl*>(arena_.allocate(u64{nspans} * sizeof(StripCtl)));
  for (u32 i = 0; i < nspans; ++i) ctl[i] = StripCtl{};
  return ctl;
}

void PfsClient::release_ctl_block(StripCtl* ctl, u32 nspans) {
  arena_.release(ctl, u64{nspans} * sizeof(StripCtl));
}

u64 PfsClient::server_index_of(NodeId node) const {
  // Linear scan: the server list is small (the paper's testbed tops out at
  // 8; sweeps at a few dozen) and this runs only with the scheduler active.
  for (u64 i = 0; i < servers_.size(); ++i) {
    if (servers_[i] == node) return i;
  }
  SAISIM_CHECK_MSG(false, "pfs strip reply from a node that is not a server");
  return 0;
}

void PfsClient::open(ProcessId proc, OpenCallback on_open) {
  const RequestId id = next_request_++;
  PendingOpen po;
  po.proc = proc;
  po.on_open = std::move(on_open);
  po.current_timeout = cfg_.retransmit_timeout;
  PendingOpen& stored =
      pending_opens_.emplace(static_cast<u64>(id), std::move(po));
  send_open_request(id, stored);
  arm_open_timeout(id);
}

void PfsClient::send_open_request(RequestId id, const PendingOpen& po) {
  net::Packet req;
  req.id = next_packet_id_++;
  req.kind = net::PacketKind::kMetaRequest;
  req.src = self_;
  req.dst = meta_node_;
  req.request = id;
  req.owner_process = po.proc;
  req.payload_bytes = cfg_.request_msg_bytes;
  req.dma_addr = control_scratch_.base;
  network_.send(std::move(req));
}

RequestId PfsClient::read(ProcessId proc, std::optional<CoreId> hint,
                          u64 file_offset, u64 bytes, ReadCallback on_complete,
                          StripConsumer strip_consumer) {
  return issue(false, proc, hint, file_offset, address_space_.allocate(bytes),
               std::move(on_complete), std::move(strip_consumer));
}

RequestId PfsClient::write(ProcessId proc, std::optional<CoreId> hint,
                           u64 file_offset, mem::AddressRange buffer,
                           ReadCallback on_complete) {
  return issue(true, proc, hint, file_offset, buffer, std::move(on_complete),
               nullptr);
}

RequestId PfsClient::issue(bool write, ProcessId proc,
                           std::optional<CoreId> hint, u64 file_offset,
                           mem::AddressRange buffer, ReadCallback on_complete,
                           StripConsumer strip_consumer) {
  const RequestId id = next_request_++;
  const u32 nspans = layout_.count_spans(file_offset, buffer.bytes);
  PendingOp op;
  op.write = write;
  op.proc = proc;
  op.hint = hint;
  op.spans = alloc_span_block(nspans);
  op.nspans = nspans;
  layout_.decompose_into(file_offset, buffer.bytes, op.spans);
  op.outstanding = nspans;
  op.retries_left = cfg_.max_retransmits;
  op.current_timeout = cfg_.retransmit_timeout;
  op.buffer = buffer;
  op.issued_at = now();
  op.on_complete = std::move(on_complete);
  op.strip_consumer = std::move(strip_consumer);

  ++(write ? stats_.writes_issued : stats_.reads_issued);
  PendingOp& stored = pending_.emplace(static_cast<u64>(id), std::move(op));
  if (!write) {
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsIssue,
                       now(), self_, hint.value_or(kNoCore), id,
                       static_cast<i64>(buffer.bytes),
                       static_cast<i64>(nspans));
  }
  if (sched_ != nullptr) stored.ctl = alloc_ctl_block(nspans);
  if (stored.ctl == nullptr || write) {
    // Layout order, each strip to its layout server: the fifo path, and
    // every write — write data must land on the owning server (no
    // redirect, no hedging), but its acks still feed the per-server
    // estimator, so samples from writes warm the read dispatch.
    for (u32 s = 0; s < nspans; ++s) {
      if (stored.ctl != nullptr)
        stored.ctl[s].target = static_cast<u32>(stored.spans[s].server);
      send_strip(id, stored, s);
    }
  } else {
    // Dispatch stage: pick each strip's target (redirecting away from slow
    // primaries), then issue slowest-expected-target first so the laggard's
    // round trip overlaps everyone else's instead of extending the tail.
    // The sort is stable and all warmup estimates tie at zero, so a healthy
    // fleet issues in exactly the fifo order.
    issue_order_.resize(nspans);
    // Mark this read's own servers so a redirect never lands a strip on a
    // peer that is already serving another strip of the same read.
    sched_->begin_read();
    for (u32 s = 0; s < nspans; ++s)
      sched_->note_peer(static_cast<u64>(stored.spans[s].server));
    for (u32 s = 0; s < nspans; ++s) {
      stored.ctl[s].target = static_cast<u32>(
          sched_->choose_target(static_cast<u64>(stored.spans[s].server)));
      issue_order_[s] = s;
    }
    std::stable_sort(issue_order_.begin(), issue_order_.end(),
                     [&](u32 a, u32 b) {
                       return sched_->expected_latency(stored.ctl[a].target) >
                              sched_->expected_latency(stored.ctl[b].target);
                     });
    for (u32 k = 0; k < nspans; ++k) {
      const u32 s = issue_order_[k];
      send_strip(id, stored, s);
      arm_hedge(id, stored, s);
    }
  }
  arm_timeout(id);
  return id;
}

void PfsClient::send_strip(RequestId id, PendingOp& op, u64 span_idx) {
  // The dispatch decision lives in the ctl block; without it the strip goes
  // where the layout put it, exactly the pre-scheduler path.
  u64 target = static_cast<u64>(op.spans[span_idx].server);
  if (op.ctl != nullptr) {
    target = op.ctl[span_idx].target;
    op.ctl[span_idx].sent_at = now();
  }
  ++(op.write ? stats_.strips_written : stats_.strips_requested);
  send_strip_copy(id, op, span_idx, target);
}

void PfsClient::send_strip_copy(RequestId id, const PendingOp& op,
                                u64 span_idx, u64 server_idx) {
  const StripSpan& span = op.spans[span_idx];
  net::Packet pkt;
  pkt.id = next_packet_id_++;
  pkt.src = self_;
  pkt.dst = servers_[server_idx];
  pkt.request = id;
  pkt.owner_process = op.proc;
  pkt.strip_index = static_cast<u32>(span_idx);
  if (op.write) {
    pkt.kind = net::PacketKind::kPfsWriteData;
    pkt.payload_bytes = span.bytes;
    // Acks land in the client's control scratch region.
    pkt.dma_addr = control_scratch_.base;
  } else {
    pkt.kind = net::PacketKind::kPfsRequest;
    pkt.payload_bytes = cfg_.request_msg_bytes;
    // The reply strip lands at its offset within the read buffer.
    pkt.dma_addr =
        op.buffer.base + (span.file_offset - op.spans[0].file_offset);
  }
  pkt.file_offset = span.file_offset;
  pkt.span_bytes = span.bytes;
  // HintMessager hook: the SAIs stack stamps aff_core_id into the packet's
  // options here; baseline kernels leave it empty.
  if (decorator_) decorator_(pkt, op.hint);
  network_.send(std::move(pkt));
}

void PfsClient::arm_hedge(RequestId id, PendingOp& op, u32 span_idx) {
  if (servers_.size() < 2) return;
  const Time delay = sched_->hedge_delay(op.ctl[span_idx].target);
  if (delay <= Time::zero()) return;
  op.ctl[span_idx].hedge_timer =
      sim().after(delay, [this, id, span_idx] { on_hedge_timer(id, span_idx); });
}

void PfsClient::on_hedge_timer(RequestId id, u32 span_idx) {
  PendingOp* op = pending_.find(static_cast<u64>(id));
  if (op == nullptr) return;  // completed in the same tick
  StripCtl& ctl = op->ctl[span_idx];
  ctl.hedge_timer.reset();  // fired — the handle must not be cancelled again
  if (bit_test(bits_of(op->spans, op->nspans), span_idx)) return;
  // No reply within hedge_quantile x the expected latency: issue a
  // duplicate on the other path and let the first arrival win (the loser's
  // reply hits the dedup bitmap like any stale retransmit).
  ctl.hedge_target = static_cast<u32>(sched_->hedge_target(
      static_cast<u64>(op->spans[span_idx].server), ctl.target));
  ctl.hedged = true;
  ctl.hedge_sent_at = now();
  ++stats_.hedges_issued;
  SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsHedge,
                     now(), self_, kNoCore, id, static_cast<i64>(span_idx),
                     static_cast<i64>(ctl.hedge_target),
                     (now() - ctl.sent_at).picoseconds());
  send_strip_copy(id, *op, span_idx, ctl.hedge_target);
}

void PfsClient::note_strip(PendingOp& op, u64 span_idx, const net::Packet& p,
                           Time at) {
  StripCtl& ctl = op.ctl[span_idx];
  sim().cancel_if_armed(ctl.hedge_timer);
  // Writes are never hedged, so an ack always times its primary copy.
  if (ctl.hedged) {
    const u64 src = server_index_of(p.src);
    if (src == ctl.hedge_target && ctl.hedge_target != ctl.target) {
      // The duplicate beat the primary: the hedge paid for itself.
      ++stats_.hedges_won;
      sched_->record_rtt(src, at - ctl.hedge_sent_at);
      return;
    }
    ++stats_.hedges_wasted;
  }
  sched_->record_rtt(ctl.target, at - ctl.sent_at);
}

Time PfsClient::backoff(Time current) const {
  // RTO backoff: congestion (as opposed to loss) must not be amplified by
  // ever-faster retries — but doubling is clamped so a long-lived request
  // keeps probing instead of going silent for the rest of the run.
  return std::min(current * 2, cfg_.max_retransmit_timeout);
}

void PfsClient::arm_timeout(RequestId id) {
  PendingOp* op = pending_.find(static_cast<u64>(id));
  SAISIM_CHECK(op != nullptr);
  op->timeout =
      sim().after(op->current_timeout, [this, id] { on_timeout(id); });
}

void PfsClient::on_timeout(RequestId id) {
  PendingOp* op = pending_.find(static_cast<u64>(id));
  if (op == nullptr) return;  // completed in the same tick
  op->timeout.reset();
  if (op->retries_left <= 0) {
    finish(id, now(), kNoCore, true);
    return;
  }
  --op->retries_left;
  const u64* done = bits_of(op->spans, op->nspans);
  for (u64 s = 0; s < op->nspans; ++s) {
    if (bit_test(done, s)) continue;
    ++stats_.retransmits;
    ++op->retransmitted;
    SAISIM_LOG_AT(util::Subsystem::kPfs, LogLevel::kDebug,
                  "retransmitting " << (op->write ? "write strip " : "strip ")
                                    << s << " of request " << id
                                    << " (retries left " << op->retries_left
                                    << ")");
    // Retransmits supersede hedging: both copies are now being re-sent by
    // the RTO machinery, so a still-armed hedge timer for this strip is
    // disarmed rather than left to fire a third copy.
    if (op->ctl != nullptr) sim().cancel_if_armed(op->ctl[s].hedge_timer);
    send_strip(id, *op, s);
  }
  op->current_timeout = backoff(op->current_timeout);
  arm_timeout(id);
}

void PfsClient::finish(RequestId id, Time at, CoreId handler, bool failed) {
  PendingOp* op = pending_.find(static_cast<u64>(id));
  SAISIM_CHECK(op != nullptr);
  // On success the RTO is still armed; on failure it is what just fired.
  sim().cancel_if_armed(op->timeout);
  const bool write = op->write;
  ReadResult result;
  result.request = id;
  result.buffer = op->buffer;
  result.issued_at = op->issued_at;
  result.completed_at = at;
  result.strips = op->nspans;
  result.retransmitted_strips = op->retransmitted;
  result.final_handler = handler;
  result.failed = failed;
  result.lost_strips = op->outstanding;  // zero on success
  if (failed) {
    SAISIM_LOG_AT(util::Subsystem::kPfs, LogLevel::kWarn,
                  (write ? "write " : "read ")
                      << id << " failed: " << result.lost_strips
                      << (write ? " strips unacked after "
                                : " strips still missing after ")
                      << result.retransmitted_strips << " retransmits");
    // A failed read's buffer never reaches the reader; a write's buffer
    // belongs to the caller.
    if (!write) address_space_.release(op->buffer);
  }
  auto cb = std::move(op->on_complete);
  if (op->ctl != nullptr) {
    // Lost strips may still carry an armed hedge timer; disarm before the
    // entry (and with it the handles) goes away. On success per-strip
    // arrival already disarmed each one (cancel_if_armed no-ops on reset
    // handles).
    for (u32 i = 0; i < op->nspans; ++i) {
      sim().cancel_if_armed(op->ctl[i].hedge_timer);
    }
    release_ctl_block(op->ctl, op->nspans);
  }
  release_span_block(op->spans, op->nspans);
  pending_.erase(static_cast<u64>(id));
  const Time latency = at - result.issued_at;
  if (failed) {
    ++(write ? stats_.writes_failed : stats_.reads_failed);
  } else if (write) {
    ++stats_.writes_completed;
    stats_.write_latency_us.add(latency.microseconds());
  } else {
    ++stats_.reads_completed;
    stats_.read_latency_us.add(latency.microseconds());
    // Integer-microsecond histogram feeding the run's latency recorder
    // (trace/counter_registry.hpp).
    stats_.read_latency_us_hist.add(
        static_cast<u64>(latency.picoseconds() / 1'000'000));
  }
  if (!write) {
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsComplete,
                       at, self_, handler, id,
                       static_cast<i64>(result.buffer.bytes),
                       static_cast<i64>(result.retransmitted_strips));
  }
  if (cb) cb(result);
}

void PfsClient::arm_open_timeout(RequestId id) {
  PendingOpen* po = pending_opens_.find(static_cast<u64>(id));
  SAISIM_CHECK(po != nullptr);
  po->timeout =
      sim().after(po->current_timeout, [this, id] { on_open_timeout(id); });
}

void PfsClient::on_open_timeout(RequestId id) {
  PendingOpen* po = pending_opens_.find(static_cast<u64>(id));
  if (po == nullptr) return;  // completed in the same tick
  po->timeout.reset();
  ++stats_.retransmits;
  SAISIM_LOG_AT(util::Subsystem::kPfs, LogLevel::kDebug,
                "retransmitting metadata open " << id);
  send_open_request(id, *po);
  po->current_timeout = backoff(po->current_timeout);
  arm_open_timeout(id);
}

void PfsClient::on_rx(const net::Packet& p, CoreId handler, Time at) {
  if (p.kind == net::PacketKind::kMetaReply) {
    PendingOpen* po = pending_opens_.find(static_cast<u64>(p.request));
    if (po == nullptr) {
      // Reply to a retransmitted open that already completed — same dedup
      // treatment as a late data strip.
      ++stats_.duplicate_strips;
      return;
    }
    sim().cancel(po->timeout);
    auto cb = std::move(po->on_open);
    pending_opens_.erase(static_cast<u64>(p.request));
    if (cb) cb(at);
    return;
  }
  // A read's data strip or a write's ack: one strip of `p.request` landed.
  SAISIM_CHECK(p.kind == net::PacketKind::kPfsData ||
               p.kind == net::PacketKind::kPfsWriteAck);
  PendingOp* op = pending_.find(static_cast<u64>(p.request));
  if (op == nullptr) {
    ++stats_.duplicate_strips;  // reply to an already-satisfied retransmit
    return;
  }
  SAISIM_CHECK(op->write == (p.kind == net::PacketKind::kPfsWriteAck));
  const u64 s = p.strip_index;
  SAISIM_CHECK(s < op->nspans);
  u64* done = bits_of(op->spans, op->nspans);
  if (bit_test(done, s)) {
    ++stats_.duplicate_strips;
    return;
  }
  bit_set(done, s);
  // Progress resets the RTO to base: backoff doubles to absorb congestion,
  // but once any strip of this request lands the path is demonstrably
  // alive, and letting one early loss inflate every later timeout of the
  // same request just stretches its recovery (pre-fix behaviour). A no-op
  // on the lossless path, where current_timeout never left base.
  op->current_timeout = cfg_.retransmit_timeout;
  if (op->ctl != nullptr) note_strip(*op, s, p, at);
  if (!op->write) {
    ++stats_.strips_received;
    SAISIM_TRACE_EVENT(util::Subsystem::kPfs, trace::EventType::kPfsStrip, at,
                       self_, handler, p.request, static_cast<i64>(s),
                       static_cast<i64>(p.payload_bytes));
  }
  if (op->strip_consumer) op->strip_consumer(p, handler, at);
  SAISIM_CHECK(op->outstanding > 0);
  // All peer strips arrived (or were acked); wake the caller.
  if (--op->outstanding == 0) finish(p.request, at, handler, false);
}

}  // namespace saisim::pfs
