// Output check of one run: RunMetrics fingerprint and end-of-run invariants.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

/// Counter snapshot of one run, from run_experiment's capture overload.
using Counters = std::map<std::string, saisim::u64>;

Counters counters_of(const saisim::trace::RunTrace& run);
saisim::u64 counter(const Counters& c, const std::string& name);

/// Calls `v(name, field)` for every field of RunMetrics, in declaration
/// order. The fingerprint and the perturbation test both walk this list, so
/// a field missing here is missing from both.
template <class M, class V>
void visit_metrics(M& m, V&& v) {
  v("bandwidth_mbps", m.bandwidth_mbps);
  v("l2_miss_rate", m.l2_miss_rate);
  v("cpu_utilization", m.cpu_utilization);
  v("unhalted_cycles", m.unhalted_cycles);
  v("softirq_cycles", m.softirq_cycles);
  v("total_bytes", m.total_bytes);
  v("elapsed", m.elapsed);
  v("c2c_transfers", m.c2c_transfers);
  v("interrupts", m.interrupts);
  v("retransmits", m.retransmits);
  v("rx_drops", m.rx_drops);
  v("duplicate_strips", m.duplicate_strips);
  v("failed_requests", m.failed_requests);
  v("p99_read_latency_us", m.p99_read_latency_us);
  v("hinted_interrupt_share_x1e4", m.hinted_interrupt_share_x1e4);
  v("mean_read_latency_us", m.mean_read_latency_us);
  v("per_client_bandwidth_mbps", m.per_client_bandwidth_mbps);
  v("slo_breaches", m.slo_breaches);
  v("first_slo_breach_us", m.first_slo_breach_us);
  v("hedges_issued", m.hedges_issued);
  v("hedges_won", m.hedges_won);
  v("hedges_wasted", m.hedges_wasted);
}

/// 64-bit FNV-1a over every field of `m` (doubles by their bit pattern), as
/// 16 hex digits. Equal fingerprints mean bit-identical metrics.
std::string fingerprint(const saisim::RunMetrics& m);

/// Everything wrong with one finished run; empty when it passes.
///   * every IOR process moved exactly its total_bytes
///     (ior.bytes_read counts reads and writes alike);
///   * reads issued = completed + failed, and no request failed;
///   * the run advanced simulated time and reported a finite bandwidth;
///   * when `pinned` is not empty, the fingerprint equals it.
std::vector<std::string> check_run(const saisim::ExperimentConfig& cfg,
                                   const saisim::RunMetrics& m,
                                   const Counters& counters,
                                   const std::string& pinned);

}  // namespace perfbench
