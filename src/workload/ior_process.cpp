#include "workload/ior_process.hpp"

#include "trace/tracer.hpp"

namespace saisim::workload {

IorProcess::IorProcess(sim::Simulation& simulation, cpu::CpuSystem& cpus,
                       mem::MemorySystem& memory, pfs::PfsClient& client,
                       ProcessId pid, CoreId home_core, bool send_hints,
                       IorConfig config)
    : Actor(simulation),
      cpus_(cpus),
      memory_(memory),
      client_(client),
      pid_(pid),
      home_(home_core),
      send_hints_(send_hints),
      cfg_(config) {
  SAISIM_CHECK(home_ >= 0 && home_ < cpus.num_cores());
  SAISIM_CHECK(cfg_.transfer_size > 0);
  SAISIM_CHECK(cfg_.total_bytes >= cfg_.transfer_size);
  next_offset_ = cfg_.file_offset_start;
}

void IorProcess::start(
    std::function<void(const IorProcessStats&)> on_finished) {
  on_finished_ = std::move(on_finished);
  stats_.started_at = now();
  client_.open(pid_, [this](Time at) {
    (void)at;
    if (cfg_.mode == IorMode::kWrite) {
      issue_next_write(now());
    } else {
      issue_next_read(now());
    }
  });
}

u64 IorProcess::next_io_offset() {
  if (cfg_.pattern == AccessPattern::kRandom) {
    // IOR's random mode: transfer-aligned offsets drawn uniformly from the
    // file region (strips then hit the servers in shuffled order).
    const u64 slots = cfg_.file_region_bytes / cfg_.transfer_size;
    return cfg_.file_offset_start +
           sim().rng().below(slots) * cfg_.transfer_size;
  }
  const u64 off = next_offset_;
  next_offset_ += cfg_.transfer_size;
  return off;
}

void IorProcess::account_io(u64 bytes, Time at) {
  stats_.bytes_read += bytes;
  ++stats_.reads_completed;
  if (stats_.bytes_read >= cfg_.total_bytes) {
    stats_.finished_at = at;
    if (on_finished_) on_finished_(stats_);
    return;
  }
  if (cfg_.mode == IorMode::kWrite) {
    issue_next_write(at);
  } else {
    issue_next_read(at);
  }
}

void IorProcess::issue_next_write(Time) {
  // Produce the block on the home core (the added encryption task runs
  // before the data leaves), then hand it to the PFS client. The network
  // and servers see the same strip fan-out as a read, but the only return
  // traffic is tiny acks — no payload to steer, hence no locality lever.
  const mem::AddressRange buffer =
      client_.allocate_buffer(cfg_.transfer_size);
  cpus_.core(home_).submit(cpu::WorkItem{
      .prio = cpu::Priority::kUser,
      .cost =
          [this, buffer](Time at) {
            Cycles cost = cfg_.syscall_cycles;
            const Time mem_time = memory_.access(
                home_, buffer.base, buffer.bytes,
                mem::MemorySystem::AccessType::kWrite, at,
                cfg_.compute_reuse_per_line);
            cost += cpus_.frequency().cycles_in(mem_time);
            cost += Cycles{static_cast<i64>(
                buffer.bytes *
                static_cast<u64>(cfg_.compute_centicycles_per_byte) / 100)};
            return cost;
          },
      .on_complete =
          [this, buffer](Time) {
            const std::optional<CoreId> hint =
                send_hints_ ? std::optional<CoreId>(home_) : std::nullopt;
            client_.write(pid_, hint, next_io_offset(), buffer,
                          [this](const pfs::ReadResult& r) {
                            if (r.failed) ++stats_.failed_transfers;
                            account_io(r.buffer.bytes, r.completed_at);
                          });
          },
      .tag = "ior-write",
  });
}

void IorProcess::issue_next_read(Time) {
  // The read() syscall runs on the home core, then the process blocks.
  cpus_.core(home_).submit(cpu::WorkItem{
      .prio = cpu::Priority::kUser,
      .cost = [this](Time) { return cfg_.syscall_cycles; },
      .on_complete =
          [this](Time) {
            const std::optional<CoreId> hint =
                send_hints_ ? std::optional<CoreId>(home_) : std::nullopt;
            pfs::PfsClient::StripConsumer consumer;
            if (cfg_.incremental_copy) {
              consumer = [this](const net::Packet& strip, CoreId, Time) {
                copy_strip_to_reader(strip);
              };
            }
            client_.read(
                pid_, hint, next_io_offset(), cfg_.transfer_size,
                [this](const pfs::ReadResult& r) { on_read_complete(r); },
                std::move(consumer));
          },
      .tag = "ior-read-syscall",
  });
}

void IorProcess::copy_strip_to_reader(const net::Packet& strip) {
  // The kernel hands each arrived strip to the blocked reader as it lands:
  // a copy executed on the reader's core. When the softirq processed the
  // strip on this same core the lines are hot (private-cache hits); when it
  // ran elsewhere every line migrates cache-to-cache — the per-strip cost M
  // of the paper's model.
  const Address addr = strip.dma_addr;
  const u64 bytes = strip.payload_bytes;
  const RequestId req = strip.request;
  cpus_.core(home_).submit(cpu::WorkItem{
      .prio = cpu::Priority::kKernel,
      .cost =
          [this, addr, bytes](Time at) {
            const Time t = memory_.access(
                home_, addr, bytes, mem::MemorySystem::AccessType::kRead, at);
            return cfg_.copy_cycles_per_strip +
                   cpus_.frequency().cycles_in(t);
          },
      .on_complete = nullptr,
      .tag = "strip-copy",
      .request = req,
  });
}

void IorProcess::on_read_complete(const pfs::ReadResult& result) {
  if (result.failed) {
    // The PFS client exhausted its retransmit budget and released the
    // buffer: there is nothing to consume. Move on to the next transfer
    // (still counted, so the closed loop terminates) like a real benchmark
    // stepping past a failed read().
    ++stats_.failed_transfers;
    account_io(cfg_.transfer_size, result.completed_at);
    return;
  }
  // Called from softirq context on the core that handled the final strip;
  // the process wakes on its home core (IPI cost when that differs).
  //
  // If the scheduler migrated the blocked process while it waited, it
  // wakes on a *different* core than the one stamped into the request —
  // the paper's policy (i) vs (ii) gap. Every strip then needs a migration
  // even under SAIs.
  bool migrated = false;
  if (cfg_.wake_migration_probability > 0.0 &&
      sim().rng().chance(cfg_.wake_migration_probability)) {
    const CoreId target = cpus_.least_loaded(now());
    if (target != home_) {
      home_ = target;
      ++stats_.migrations;
      migrated = true;
    }
  }
  SAISIM_TRACE_EVENT(util::Subsystem::kWorkload, trace::EventType::kWake,
                     now(), -1, home_, result.request, result.final_handler,
                     migrated ? 1 : 0);
  consume(result);
}

void IorProcess::consume(const pfs::ReadResult& result) {
  const pfs::ReadResult r = result;
  cpus_.core(home_).submit(cpu::WorkItem{
      .prio = cpu::Priority::kUser,
      .cost =
          [this, r](Time at) {
            SAISIM_TRACE_EVENT(util::Subsystem::kWorkload,
                               trace::EventType::kConsumeBegin, at, -1,
                               home_, r.request);
            // Snapshot the home core's c2c-miss count around the buffer
            // walk: the delta is exactly the strip data migrated into this
            // core — the paper's per-strip cost M, reported per request so
            // spans can split the consume window into migration vs compute.
            const u64 c2c_before = memory_.core_stats(home_).misses_c2c;
            Cycles cost = Cycles::zero();
            Cycles migration_cycles = Cycles::zero();
            if (r.final_handler != home_) {
              cost += cfg_.remote_wakeup_cycles;
              migration_cycles += cfg_.remote_wakeup_cycles;
            }
            // One block-local walk over the buffer: the first touch of each
            // line is the locality-sensitive access (private-cache hit,
            // cache-to-cache migration, or DRAM refill depending on where
            // the softirq left the strip); the cipher then re-reads the hot
            // line `compute_reuse_per_line` times.
            //
            // Strips are consumed most-recent-first: when the transfer
            // exceeds the private cache, the resident tail is processed
            // while still hot. (A strict low-to-high walk under pure LRU
            // evicts every resident line one step before it is reached — a
            // replacement-policy artifact a real L1/L2 hierarchy does not
            // exhibit this sharply.)
            Time mem_time = Time::zero();
            const u64 strip = client_.layout().strip_size();
            u64 pos_end = r.buffer.bytes;
            while (pos_end > 0) {
              const u64 chunk = pos_end % strip == 0 ? strip : pos_end % strip;
              const u64 pos = pos_end - chunk;
              mem_time += memory_.access(
                  home_, r.buffer.base + pos, chunk,
                  mem::MemorySystem::AccessType::kRead, at + mem_time,
                  cfg_.compute_reuse_per_line);
              pos_end = pos;
            }
            cost += cpus_.frequency().cycles_in(mem_time);
            cost += Cycles{static_cast<i64>(
                r.buffer.bytes *
                static_cast<u64>(cfg_.compute_centicycles_per_byte) / 100)};
            const u64 moved = memory_.core_stats(home_).misses_c2c - c2c_before;
            migration_cycles +=
                memory_.timings().c2c_transfer * static_cast<i64>(moved);
            SAISIM_TRACE_EVENT(
                util::Subsystem::kWorkload,
                trace::EventType::kConsumeMigration, at, -1, home_,
                r.request,
                cpus_.frequency()
                    .duration(migration_cycles)
                    .picoseconds(),
                static_cast<i64>(moved));
            return cost;
          },
      .on_complete =
          [this, req = r.request](Time at) {
            SAISIM_TRACE_EVENT(util::Subsystem::kWorkload,
                               trace::EventType::kConsumeEnd, at, -1, home_,
                               req, 0, static_cast<i64>(cfg_.transfer_size));
            account_io(cfg_.transfer_size, at);
          },
      .tag = "ior-consume",
      .request = r.request,
  });
}

}  // namespace saisim::workload
