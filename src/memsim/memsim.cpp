#include "memsim/memsim.hpp"

#include <algorithm>
#include <optional>

#include "mem/address_space.hpp"
#include "util/assert.hpp"

namespace saisim::memsim {

namespace {

/// One reader/combiner pair working through its file, double-buffered: the
/// reader streams transfer k+1 while the combiner merges transfer k. On a
/// shared core (Si-SAIs) the two interleave on one core; on separate cores
/// (Si-Irqbalance) they genuinely pipeline — the fair counterweight to the
/// migration cost the split placement pays.
class Pair {
 public:
  Pair(sim::Simulation& simulation, cpu::CpuSystem& cpus,
       mem::MemorySystem& memory, mem::AddressSpace& space,
       const MemsimConfig& cfg, int index, u64* bytes_combined_total)
      : cpus_(cpus),
        memory_(memory),
        cfg_(cfg),
        bytes_combined_total_(bytes_combined_total) {
    (void)simulation;
    reader_core_ = index % cfg.num_cores;
    if (cfg.source_aware) {
      combiner_core_ = reader_core_;
    } else {
      // Si-Irqbalance placement: the balancer gives a pair's combiner its
      // own core only while free cores remain (readers occupy the first
      // num_pairs cores). Once the machine fills up, pairs co-locate —
      // which is why the paper sees the two variants converge at CPU
      // saturation.
      const int free_cores = cfg.num_cores - cfg.num_pairs;
      combiner_core_ = index < free_cores
                           ? cfg.num_cores - 1 - index
                           : reader_core_;
    }
    // The pair's "files" on the RAM disk: a fresh region per transfer so
    // every read is a cold stream from memory, like the paper's parallel
    // reads of distinct files.
    file_ = space.allocate(cfg.bytes_per_pair);
    combine_out_ = space.allocate(cfg.transfer_size);
    ipc_slots_[0] = space.allocate(cfg.transfer_size);
    ipc_slots_[1] = space.allocate(cfg.transfer_size);
    combiner_private_ = space.allocate(cfg.transfer_size);
  }

  void start() { maybe_read_ahead(); }

 private:
  struct Transfer {
    Address base = 0;       // where the combiner reads from
    u64 bytes = 0;
  };

  bool uses_ipc() const {
    return !cfg_.source_aware && cfg_.ipc_copy_between_processes;
  }

  void maybe_read_ahead() {
    // Keep at most one read in flight and one combine queued.
    if (reading_) return;
    if (ready_.has_value() && combining_) return;  // both buffers occupied
    reading_ = true;

    const u64 chunk = cfg_.transfer_size;
    const Address file_base = file_.base + bytes_read_ % cfg_.bytes_per_pair;
    // Independent processes (Si-Irqbalance) hand the data over through an
    // IPC segment: the reader writes an extra copy there and the combiner
    // reads that copy. The Si-SAIs thread pair shares the address space,
    // so the combiner reads the reader's buffer directly.
    const Address ipc_base = ipc_slots_[next_slot_].base;
    next_slot_ ^= 1;
    const Transfer t{uses_ipc() ? ipc_base : file_base, chunk};
    bytes_read_ += chunk;
    strips_left_ = (chunk + cfg_.strip_size - 1) / cfg_.strip_size;
    const u64 strips = strips_left_;
    for (u64 s = 0; s < strips; ++s) {
      const u64 off = s * cfg_.strip_size;
      const u64 bytes = std::min(cfg_.strip_size, chunk - off);
      cpus_.core(reader_core_).submit(cpu::WorkItem{
          .prio = cpu::Priority::kUser,
          .cost =
              [this, file_base, ipc_base, off, bytes](Time at) {
                Time stall = memory_.access(
                    reader_core_, file_base + off, bytes,
                    mem::MemorySystem::AccessType::kWrite, at);
                if (uses_ipc()) {
                  stall += memory_.access(reader_core_, ipc_base + off, bytes,
                                          mem::MemorySystem::AccessType::kWrite,
                                          at + stall);
                }
                return cpus_.frequency().cycles_in(stall) +
                       Cycles{static_cast<i64>(bytes) *
                              cfg_.reader_centicycles_per_byte / 100};
              },
          .on_complete =
              [this, t](Time) {
                SAISIM_CHECK(strips_left_ > 0);
                if (--strips_left_ > 0) return;
                reading_ = false;
                SAISIM_CHECK(!ready_.has_value());
                ready_ = t;
                maybe_combine();
                maybe_read_ahead();
              },
          .tag = "si-reader",
      });
    }
  }

  void maybe_combine() {
    if (combining_ || !ready_.has_value()) return;
    combining_ = true;
    const Transfer t = *ready_;
    ready_.reset();

    cpus_.core(combiner_core_).submit(cpu::WorkItem{
        .prio = cpu::Priority::kUser,
        .cost =
            [this, t](Time at) {
              Time stall = Time::zero();
              Address read_base = t.base;
              if (uses_ipc()) {
                // Pipe semantics are two copies: the IPC segment is first
                // drained into the combiner's own buffer (kernel->user),
                // then combined from there.
                stall += memory_.access(combiner_core_, t.base, t.bytes,
                                        mem::MemorySystem::AccessType::kRead,
                                        at);
                stall += memory_.access(combiner_core_, combiner_private_.base,
                                        t.bytes,
                                        mem::MemorySystem::AccessType::kWrite,
                                        at + stall);
                read_base = combiner_private_.base;
              }
              // Walk the strips most-recent-first (see IorProcess::consume)
              // and merge into the output buffer.
              u64 end = t.bytes;
              while (end > 0) {
                const u64 piece = end % cfg_.strip_size == 0
                                      ? cfg_.strip_size
                                      : end % cfg_.strip_size;
                const u64 pos = end - piece;
                stall += memory_.access(combiner_core_, read_base + pos, piece,
                                        mem::MemorySystem::AccessType::kRead,
                                        at + stall,
                                        cfg_.combiner_reuse_per_line);
                end = pos;
              }
              stall += memory_.access(combiner_core_, combine_out_.base,
                                      t.bytes,
                                      mem::MemorySystem::AccessType::kWrite,
                                      at + stall);
              return cpus_.frequency().cycles_in(stall) +
                     Cycles{static_cast<i64>(t.bytes) *
                            cfg_.combiner_centicycles_per_byte / 100};
            },
        .on_complete =
            [this, t](Time) {
              combining_ = false;
              *bytes_combined_total_ += t.bytes;
              maybe_combine();
              maybe_read_ahead();
            },
        .tag = "si-combiner",
    });
  }

  cpu::CpuSystem& cpus_;
  mem::MemorySystem& memory_;
  const MemsimConfig& cfg_;
  u64* bytes_combined_total_;
  CoreId reader_core_ = 0;
  CoreId combiner_core_ = 0;
  mem::AddressRange file_;
  mem::AddressRange combine_out_;
  mem::AddressRange ipc_slots_[2];
  mem::AddressRange combiner_private_;
  u64 next_slot_ = 0;

  bool reading_ = false;
  bool combining_ = false;
  std::optional<Transfer> ready_;
  u64 strips_left_ = 0;
  u64 bytes_read_ = 0;
};

}  // namespace

MemsimResult run_memsim(const MemsimConfig& cfg) {
  SAISIM_CHECK(cfg.num_pairs > 0);
  SAISIM_CHECK(cfg.bytes_per_pair >= cfg.transfer_size);
  SAISIM_CHECK(cfg.duration > cfg.warmup);

  sim::Simulation simulation(cfg.seed);
  cpu::CpuSystem cpus(simulation, cfg.num_cores, cfg.core_freq);
  mem::MemorySystem memory(cfg.num_cores, cfg.cache, cfg.timings,
                           cfg.core_freq, cfg.ram_disk_bandwidth);
  mem::AddressSpace space(cfg.cache.line_bytes);

  u64 bytes_combined_total = 0;
  std::vector<std::unique_ptr<Pair>> pairs;
  pairs.reserve(static_cast<u64>(cfg.num_pairs));
  for (int i = 0; i < cfg.num_pairs; ++i) {
    pairs.push_back(std::make_unique<Pair>(simulation, cpus, memory, space,
                                           cfg, i, &bytes_combined_total));
  }
  for (auto& p : pairs) p->start();

  // Steady-state measurement window: snapshot counters at warmup, stop the
  // clock at `duration`.
  simulation.run_until(cfg.warmup);
  const u64 bytes_at_warmup = bytes_combined_total;
  const Time busy_at_warmup = cpus.total_busy();
  const auto cache_at_warmup = memory.total_stats();
  const u64 c2c_at_warmup = memory.c2c_transfers();
  simulation.run_until(cfg.duration);

  const Time window = cfg.duration - cfg.warmup;
  MemsimResult r;
  r.elapsed = window;
  r.total_bytes = bytes_combined_total - bytes_at_warmup;
  r.bandwidth_mbps = throughput_mbps(r.total_bytes, window);
  const auto cache_now = memory.total_stats();
  const u64 acc = cache_now.accesses - cache_at_warmup.accesses;
  const u64 miss = cache_now.misses() - cache_at_warmup.misses();
  r.l2_miss_rate =
      acc == 0 ? 0.0 : static_cast<double>(miss) / static_cast<double>(acc);
  r.cpu_utilization =
      (cpus.total_busy() - busy_at_warmup).ratio(window * cfg.num_cores);
  r.c2c_transfers = memory.c2c_transfers() - c2c_at_warmup;
  return r;
}

MemsimComparison make_memsim_comparison(MemsimResult irqbalance,
                                        MemsimResult sais) {
  MemsimComparison out;
  out.irqbalance = std::move(irqbalance);
  out.sais = std::move(sais);
  if (out.irqbalance.bandwidth_mbps > 0) {
    out.bandwidth_speedup_pct =
        (out.sais.bandwidth_mbps - out.irqbalance.bandwidth_mbps) /
        out.irqbalance.bandwidth_mbps * 100.0;
  }
  if (out.irqbalance.l2_miss_rate > 0) {
    out.miss_rate_reduction_pct =
        (out.irqbalance.l2_miss_rate - out.sais.l2_miss_rate) /
        out.irqbalance.l2_miss_rate * 100.0;
  }
  return out;
}

MemsimComparison compare_memsim(MemsimConfig cfg) {
  cfg.source_aware = false;
  MemsimResult irqbalance = run_memsim(cfg);
  cfg.source_aware = true;
  MemsimResult sais = run_memsim(cfg);
  return make_memsim_comparison(std::move(irqbalance), std::move(sais));
}

}  // namespace saisim::memsim
