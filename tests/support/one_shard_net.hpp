// A fabric on a 1-shard engine, for tests that drive net::Network directly.
#pragma once

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace saisim::test {

/// Shard 0 of a 1-shard engine is Simulation(seed) and every forward is a
/// same-queue schedule, so timings equal the serial kernel's.
struct OneShardNet {
  explicit OneShardNet(Time switch_latency = Time::us(5))
      : engine(0x5A15, 1, switch_latency), net(engine, switch_latency) {}

  sim::Engine engine;
  sim::Simulation& s = engine.shard(0);
  net::Network net;
};

}  // namespace saisim::test
