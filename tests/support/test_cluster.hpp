// The cluster every PFS integration fixture builds through saisim::Cluster.
#pragma once

#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace saisim::test {

/// 4 I/O servers with 64 KiB strips; one 4-core 2 GHz client with
/// unlimited DRAM, source-aware interrupt routing (so the client stamps
/// and parses SAIs hints) and no background load. The seed is a bare
/// sim::Simulation's default.
inline ExperimentConfig cluster_config() {
  ExperimentConfig cfg;
  cfg.num_servers = 4;
  cfg.strip_size = 64ull << 10;
  cfg.client.cores = 4;
  cfg.client.core_freq = Frequency::ghz(2.0);
  cfg.client.dram_bandwidth = Bandwidth::unlimited();
  cfg.policy = PolicyKind::kSourceAware;
  cfg.enable_background = false;
  cfg.seed = 0x5A15;
  return cfg;
}

/// After a drained sim().run(): every request `client` issued completed or
/// failed exactly once, and none is left in its pending table.
inline void expect_drained(const pfs::PfsClient& client) {
  const pfs::PfsClientStats& st = client.stats();
  EXPECT_EQ(st.reads_issued, st.reads_completed + st.reads_failed);
  EXPECT_EQ(st.writes_issued, st.writes_completed + st.writes_failed);
  EXPECT_EQ(client.inflight_requests(), 0u);
}

}  // namespace saisim::test
