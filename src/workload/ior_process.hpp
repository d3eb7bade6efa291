// An IOR-like application process (paper §V.B).
//
// Closed loop, as IOR's read phase is: open the file, then repeatedly
// read `transfer_size` bytes, consume them (walk the buffer) and run the
// added compute task (the paper adds encryption of every collected block),
// until `total_bytes` have been read.
//
// The consume step is where the locality bill is paid: the first pass over
// the buffer either hits the home core's private cache (strips whose
// softirq ran here) or drags lines across cores / from DRAM.
#pragma once

#include <functional>
#include <optional>

#include "cpu/cpu_system.hpp"
#include "mem/memory_system.hpp"
#include "pfs/pfs_client.hpp"
#include "util/reflect.hpp"

namespace saisim::workload {

enum class IorMode {
  kRead,   // the paper's focus: parallel read with source-aware interrupts
  kWrite,  // negative control: writes have no client-side locality issue
};

enum class AccessPattern {
  kSequential,  // IOR's default streaming read
  kRandom,      // IOR's random mode: transfer-aligned random offsets
};

inline constexpr const char* kIorModeNames[] = {"read", "write"};
inline constexpr const char* kAccessPatternNames[] = {"sequential", "random"};

struct IorConfig {
  IorMode mode = IorMode::kRead;
  AccessPattern pattern = AccessPattern::kSequential;
  u64 transfer_size = 1ull << 20;
  u64 total_bytes = 32ull << 20;
  u64 file_offset_start = 0;
  /// Size of the file region random-mode offsets are drawn from.
  u64 file_region_bytes = 1ull << 30;
  /// Probability that the OS migrates the blocked process to the currently
  /// least-loaded core while it waits for I/O. The paper's §III policy (i)
  /// stamps the *issuing* core into the request, so a migration makes the
  /// hint stale; the paper argues such migrations are rare during blocking
  /// I/O ("the expected performance difference ... is trivial"). Swept by
  /// the migration ablation.
  double wake_migration_probability = 0.0;
  /// Encryption cost per byte, in hundredths of a cycle (the paper's added
  /// compute task; ~12 cycles/byte for a software cipher on K10).
  i64 compute_centicycles_per_byte = 1200;
  /// Block-local re-accesses per cache line during compute (the cipher
  /// reads each block several times while it is hot). These guaranteed hits
  /// model the application's own locality and set the baseline hit traffic
  /// the paper's miss *rates* are diluted by.
  int compute_reuse_per_line = 3;
  /// read() syscall + request build cost per I/O.
  Cycles syscall_cycles{8000};
  /// Fixed kernel cost of handing one arrived strip to the reader (on top
  /// of the per-line memory cost, which depends on where the strip is).
  Cycles copy_cycles_per_strip{2000};
  /// When true, each strip is copied to the reader's core as it arrives
  /// (overlapping with the remaining network transfer — the paper's T_O).
  /// Default false: the reader touches the data when read() returns, which
  /// is the serial migration cost T_M the paper's model charges. The
  /// overlap ablation bench flips this.
  bool incremental_copy = false;
  /// Wake-up/IPI handling cost when the final strip's softirq ran on
  /// another core.
  Cycles remote_wakeup_cycles{4000};
};

template <class V>
void describe(V& v, IorConfig& c) {
  namespace r = util::reflect;
  v.field("mode", c.mode, r::EnumNames{kIorModeNames, 2});
  v.field("pattern", c.pattern, r::EnumNames{kAccessPatternNames, 2});
  v.field("transfer_size", c.transfer_size, r::positive(), "B");
  v.field("total_bytes", c.total_bytes, r::positive(), "B");
  v.field("file_offset_start", c.file_offset_start, r::non_negative(), "B");
  v.field("file_region_bytes", c.file_region_bytes, r::positive(), "B");
  v.field("wake_migration_probability", c.wake_migration_probability,
          r::unit_interval());
  v.field("compute_centicycles_per_byte", c.compute_centicycles_per_byte,
          r::non_negative(), "centicycles");
  v.field("compute_reuse_per_line", c.compute_reuse_per_line,
          r::non_negative());
  v.field("syscall_cycles", c.syscall_cycles, r::non_negative());
  v.field("copy_cycles_per_strip", c.copy_cycles_per_strip,
          r::non_negative());
  v.field("incremental_copy", c.incremental_copy);
  v.field("remote_wakeup_cycles", c.remote_wakeup_cycles, r::non_negative());
  v.invariant(c.file_region_bytes >= c.transfer_size,
              "file_region_bytes must cover at least one transfer");
}

struct IorProcessStats {
  u64 bytes_read = 0;
  u64 reads_completed = 0;
  /// Transfers the PFS client gave up on (retransmit budget exhausted under
  /// injected faults). Counted towards progress — IOR moves on to the next
  /// transfer, as a real benchmark does after a failed read() — but their
  /// buffers are never consumed.
  u64 failed_transfers = 0;
  u64 migrations = 0;
  Time started_at = Time::zero();
  Time finished_at = Time::zero();
};

class IorProcess : public sim::Actor {
 public:
  /// `send_hints` distinguishes a SAIs-aware process (stamps its core id
  /// into requests) from a plain one.
  IorProcess(sim::Simulation& simulation, cpu::CpuSystem& cpus,
             mem::MemorySystem& memory, pfs::PfsClient& client,
             ProcessId pid, CoreId home_core, bool send_hints,
             IorConfig config);

  /// Begin the open + read loop; `on_finished` fires after the last
  /// consume completes.
  void start(std::function<void(const IorProcessStats&)> on_finished);

  const IorProcessStats& stats() const { return stats_; }

 private:
  void issue_next_read(Time now);
  void issue_next_write(Time now);
  u64 next_io_offset();
  void copy_strip_to_reader(const net::Packet& strip);
  void on_read_complete(const pfs::ReadResult& result);
  void consume(const pfs::ReadResult& result);
  void account_io(u64 bytes, Time at);

  cpu::CpuSystem& cpus_;
  mem::MemorySystem& memory_;
  pfs::PfsClient& client_;
  ProcessId pid_;
  CoreId home_;
  bool send_hints_;
  IorConfig cfg_;

  u64 next_offset_ = 0;
  IorProcessStats stats_;
  std::function<void(const IorProcessStats&)> on_finished_;
};

}  // namespace saisim::workload
