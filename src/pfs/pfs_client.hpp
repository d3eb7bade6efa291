// Client-side PVFS protocol engine.
//
// A read fans out one request packet per strip to the I/O servers holding
// the range, tracks per-strip completion as reply interrupts are handled,
// retransmits strips lost to RX overruns, and reports completion (from
// softirq context, on whichever core handled the final strip). A write runs
// the same request path with data strips out and acks back.
//
// The class is policy-agnostic: a RequestDecorator installed by the SAIs
// stack stamps the aff_core_id hint into outgoing requests; without it the
// client behaves like an unmodified PVFS client.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mem/address_space.hpp"
#include "net/nic.hpp"
#include "pfs/straggler_sched.hpp"
#include "pfs/stripe_layout.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "util/arena.hpp"
#include "util/flat_map.hpp"
#include "util/reflect.hpp"
#include "util/small_function.hpp"

namespace saisim::pfs {

struct PfsClientConfig {
  u64 request_msg_bytes = 256;
  /// Initial retransmit timeout; doubles on every retry (RTO backoff), so
  /// congestion delays are waited out rather than amplified.
  Time retransmit_timeout = Time::ms(500);
  int max_retransmits = 16;
  /// Ceiling of the RTO backoff: the doubled timeout is clamped here, so a
  /// long-lived request retries steadily instead of going silent for the
  /// rest of the run.
  Time max_retransmit_timeout = Time::sec(8);
};

template <class V>
void describe(V& v, PfsClientConfig& c) {
  namespace r = util::reflect;
  v.field("request_msg_bytes", c.request_msg_bytes, r::positive(), "bytes");
  v.field("retransmit_timeout", c.retransmit_timeout, r::positive());
  v.field("max_retransmits", c.max_retransmits, r::non_negative());
  v.field("max_retransmit_timeout", c.max_retransmit_timeout, r::positive());
  v.invariant(c.max_retransmit_timeout >= c.retransmit_timeout,
              "pfs max_retransmit_timeout must be >= retransmit_timeout");
}

struct ReadResult {
  RequestId request = -1;
  mem::AddressRange buffer;
  Time issued_at = Time::zero();
  Time completed_at = Time::zero();
  u32 strips = 0;
  u32 retransmitted_strips = 0;
  /// Core that handled the final strip's softirq (wake-up origin).
  CoreId final_handler = kNoCore;
  /// Retransmit budget exhausted: the request completed unsuccessfully and
  /// `lost_strips` of its strips never arrived. The buffer has already been
  /// released back to the address space.
  bool failed = false;
  u32 lost_strips = 0;
};

struct PfsClientStats {
  u64 reads_issued = 0;
  u64 reads_completed = 0;
  u64 reads_failed = 0;
  u64 writes_issued = 0;
  u64 writes_completed = 0;
  u64 writes_failed = 0;
  u64 strips_requested = 0;
  u64 strips_received = 0;
  u64 strips_written = 0;
  u64 retransmits = 0;
  u64 duplicate_strips = 0;
  /// Hedged-read accounting (straggler_aware + hedge_quantile > 0 only):
  /// duplicates sent, hedges whose copy arrived first, hedges whose
  /// primary still won (the duplicate was wasted downlink).
  u64 hedges_issued = 0;
  u64 hedges_won = 0;
  u64 hedges_wasted = 0;
  stats::Summary read_latency_us;
  /// Integer-µs read-latency distribution, merged into the run's
  /// CounterRegistry latency recorder at the end-of-run barrier.
  stats::Log2Histogram read_latency_us_hist;
};

/// Counter rows (`pfs.*`). The latency summary and histogram are
/// distributions, not counters, and stay out.
template <class V>
void describe(V& v, PfsClientStats& s) {
  v.field("reads_issued", s.reads_issued);
  v.field("reads_completed", s.reads_completed);
  v.field("reads_failed", s.reads_failed);
  v.field("writes_issued", s.writes_issued);
  v.field("writes_completed", s.writes_completed);
  v.field("writes_failed", s.writes_failed);
  v.field("strips_requested", s.strips_requested);
  v.field("strips_received", s.strips_received);
  v.field("strips_written", s.strips_written);
  v.field("retransmits", s.retransmits);
  v.field("duplicate_strips", s.duplicate_strips);
  v.field("hedges_issued", s.hedges_issued);
  v.field("hedges_won", s.hedges_won);
  v.field("hedges_wasted", s.hedges_wasted);
}

class PfsClient : public sim::Actor {
 public:
  // Callbacks are SmallFunctions: issuing a request moves its completion
  // closure into the pending table inline, so the per-request bookkeeping
  // performs no heap allocation. All of them are move-only — each request
  // has exactly one completion owner.
  using RequestDecorator =
      SmallFunction<void(net::Packet&, std::optional<CoreId> hint)>;
  using ReadCallback = SmallFunction<void(const ReadResult&)>;
  /// Invoked once per received strip, from softirq context on the handling
  /// core. Callers use it to model the kernel's incremental copy of each
  /// strip to the blocked reader (which runs on the reader's core — the
  /// step where balanced interrupt placement pays the cross-core
  /// migration).
  using StripConsumer =
      SmallFunction<void(const net::Packet&, CoreId handler, Time)>;
  using OpenCallback = SmallFunction<void(Time)>;

  PfsClient(sim::Simulation& simulation, net::Network& network,
            net::ClientNic& nic, NodeId self, StripeLayout layout,
            std::vector<NodeId> server_nodes, NodeId meta_node,
            mem::AddressSpace& address_space, PfsClientConfig config = {},
            ClientSchedConfig sched_config = {});

  /// Metadata open round-trip; `on_open` fires when the layout arrives.
  void open(ProcessId proc, OpenCallback on_open);

  /// Issue a striped read. `hint` is the requesting core's id (present only
  /// when the SAIs stack is active); the decorator encodes it.
  RequestId read(ProcessId proc, std::optional<CoreId> hint, u64 file_offset,
                 u64 bytes, ReadCallback on_complete,
                 StripConsumer strip_consumer = nullptr);

  /// Issue a striped write from `buffer`. Data packets fan out to the
  /// servers; completion fires when every strip is acknowledged. Writes
  /// have no client-side locality issue (the paper's §I) — acks are tiny —
  /// so this path serves as the negative control.
  RequestId write(ProcessId proc, std::optional<CoreId> hint, u64 file_offset,
                  mem::AddressRange buffer, ReadCallback on_complete);

  void set_request_decorator(RequestDecorator d) { decorator_ = std::move(d); }

  /// Allocate a client-memory buffer (e.g. a write source) from the node's
  /// address space.
  mem::AddressRange allocate_buffer(u64 bytes) {
    return address_space_.allocate(bytes);
  }

  const PfsClientStats& stats() const { return stats_; }
  const StripeLayout& layout() const { return layout_; }

  /// The straggler-aware dispatch stage, or nullptr under policy = fifo.
  const StragglerScheduler* scheduler() const { return sched_.get(); }

  /// Requests issued but not yet completed (reads + writes) — the
  /// in-flight gauge the telemetry sampler reads.
  u64 inflight_requests() const { return pending_.size(); }

 private:
  // Per-strip dispatch control, allocated (one arena block of nspans
  // entries per request) only when the straggler scheduler is active:
  // which server each copy went to and when, plus the armed hedge timer.
  // Under policy = fifo no block exists and the request layout is exactly
  // the pre-scheduler client's.
  struct StripCtl {
    sim::EventHandle hedge_timer;
    Time sent_at = Time::zero();        // last primary-copy transmit
    Time hedge_sent_at = Time::zero();  // hedged-copy transmit
    u32 target = 0;                     // server index of the primary copy
    u32 hedge_target = 0;               // server index of the hedged copy
    bool hedged = false;
  };

  /// One striped read or write in flight. Both directions run the same
  /// protocol — fan out one packet per strip, retransmit unanswered strips
  /// on the RTO ladder, complete on the last reply — and differ only in
  /// what travels: a read sends 256 B requests and gets data strips back, a
  /// write sends data strips and gets tiny acks back.
  ///
  /// Span storage lives in one arena block: `nspans` StripSpans followed by
  /// the received/acked bitmap of (nspans+63)/64 u64 words. The block is
  /// released back to the arena when the request completes or fails, so
  /// steady-state issue/complete cycles allocate nothing.
  struct PendingOp {
    bool write = false;
    ProcessId proc = -1;
    std::optional<CoreId> hint;
    StripSpan* spans = nullptr;  // arena block; bitmap words follow
    StripCtl* ctl = nullptr;     // arena block, scheduler active only
    u32 nspans = 0;
    u32 outstanding = 0;
    u32 retransmitted = 0;
    int retries_left = 0;
    Time current_timeout = Time::zero();
    mem::AddressRange buffer;  // reads: allocated here, released on failure
    Time issued_at = Time::zero();
    ReadCallback on_complete;
    StripConsumer strip_consumer;  // reads only
    sim::EventHandle timeout;
  };

  /// Metadata opens carry no payload worth failing over, so they retry
  /// indefinitely (capped backoff) until the reply lands.
  struct PendingOpen {
    ProcessId proc = -1;
    OpenCallback on_open;
    Time current_timeout = Time::zero();
    sim::EventHandle timeout;
  };

  static u64 bitmap_words(u32 nspans) { return (u64{nspans} + 63) / 64; }
  static u64 span_block_bytes(u32 nspans) {
    return u64{nspans} * sizeof(StripSpan) + bitmap_words(nspans) * sizeof(u64);
  }
  /// Bitmap view of a span block (the words after the spans; StripSpan is
  /// 8-aligned so the words land aligned).
  static u64* bits_of(StripSpan* spans, u32 nspans) {
    return reinterpret_cast<u64*>(spans + nspans);
  }
  static bool bit_test(const u64* bits, u64 i) {
    return ((bits[i >> 6] >> (i & 63)) & 1) != 0;
  }
  static void bit_set(u64* bits, u64 i) { bits[i >> 6] |= u64{1} << (i & 63); }

  StripSpan* alloc_span_block(u32 nspans);
  void release_span_block(StripSpan* spans, u32 nspans);
  StripCtl* alloc_ctl_block(u32 nspans);
  void release_ctl_block(StripCtl* ctl, u32 nspans);

  RequestId issue(bool write, ProcessId proc, std::optional<CoreId> hint,
                  u64 file_offset, mem::AddressRange buffer,
                  ReadCallback on_complete, StripConsumer strip_consumer);
  void on_rx(const net::Packet& p, CoreId handler, Time at);
  void send_strip(RequestId id, PendingOp& op, u64 span_idx);
  void send_strip_copy(RequestId id, const PendingOp& op, u64 span_idx,
                       u64 server_idx);
  void arm_hedge(RequestId id, PendingOp& op, u32 span_idx);
  void on_hedge_timer(RequestId id, u32 span_idx);
  void note_strip(PendingOp& op, u64 span_idx, const net::Packet& p, Time at);
  u64 server_index_of(NodeId node) const;
  void send_open_request(RequestId id, const PendingOpen& po);
  void arm_timeout(RequestId id);
  void on_timeout(RequestId id);
  void arm_open_timeout(RequestId id);
  void on_open_timeout(RequestId id);
  /// Tear down request `id` and fire its completion: success from the last
  /// strip's arrival (on `handler`), failure once the retry budget is
  /// spent (handler kNoCore).
  void finish(RequestId id, Time at, CoreId handler, bool failed);
  Time backoff(Time current) const;

  net::Network& network_;
  net::ClientNic& nic_;
  NodeId self_;
  StripeLayout layout_;
  std::vector<NodeId> servers_;
  NodeId meta_node_;
  mem::AddressSpace& address_space_;
  PfsClientConfig cfg_;
  ClientSchedConfig sched_cfg_;
  RequestDecorator decorator_;
  /// Straggler-aware dispatch stage; null under policy = fifo so the
  /// default path never consults it.
  std::unique_ptr<StragglerScheduler> sched_;
  /// Scratch for the dispatch reorder (slowest expected target first);
  /// reused across reads so steady state allocates nothing.
  std::vector<u32> issue_order_;

  util::Arena arena_;
  /// Reads and writes share one table: both draw ids from next_request_.
  util::FlatIdMap<PendingOp> pending_;
  util::FlatIdMap<PendingOpen> pending_opens_;
  mem::AddressRange control_scratch_;
  RequestId next_request_ = 1;
  u64 next_packet_id_ = 1;
  PfsClientStats stats_;
};

}  // namespace saisim::pfs
