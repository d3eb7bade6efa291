#include "core/cluster.hpp"

namespace saisim {
namespace {

// The sharded DES core. One shard degenerates to the legacy serial kernel
// (no workers, the exact pre-shard run loop); S > 1 partitions the topology
// over S queues synchronized by conservative lookahead — the switch
// store-and-forward latency, which every cross-shard path pays.
Time lookahead_of(const ExperimentConfig& cfg) {
  return cfg.sim.lookahead_override > Time::zero() ? cfg.sim.lookahead_override
                                                   : cfg.switch_latency;
}

// Partition function: all client machines home on shard 0 — the control
// shard, whose clock is the run clock and whose RNG stream is the root
// seed, so every model RNG site (all on clients) draws the same sequence at
// any shard count. I/O + metadata servers spread round-robin over shards
// 1..S-1 in creation order; `remote` is that creation index.
int server_shard(int num_shards, int remote) {
  return num_shards == 1 ? 0 : 1 + remote % (num_shards - 1);
}

}  // namespace

ClientNode::ClientNode(sim::Simulation& simulation, net::Network& network,
                       const ExperimentConfig& cfg, NodeId node,
                       std::vector<NodeId> server_nodes, NodeId meta_node)
    : address_space_(cfg.client.cache.line_bytes) {
  cpus_ = std::make_unique<cpu::CpuSystem>(simulation, cfg.client.cores,
                                           cfg.client.core_freq,
                                           cfg.client.user_quantum);
  memory_ = std::make_unique<mem::MemorySystem>(
      cfg.client.cores, cfg.client.cache, cfg.client.timings,
      cfg.client.core_freq, cfg.client.dram_bandwidth);
  io_apic_ = std::make_unique<apic::IoApic>(simulation, *cpus_,
                                            make_policy(cfg.policy));
  nic_ = std::make_unique<net::ClientNic>(simulation, network, node, *io_apic_,
                                          *memory_, cfg.client.core_freq,
                                          cfg.client.nic);
  pfs_ = std::make_unique<pfs::PfsClient>(
      simulation, network, *nic_, node,
      pfs::StripeLayout(cfg.strip_size, cfg.num_servers),
      std::move(server_nodes), meta_node, address_space_, cfg.client.pfs,
      cfg.client.sched);
  if (policy_uses_hints(cfg.policy)) {
    sais::install(*pfs_, *nic_);
  }
  if (cfg.enable_background) {
    background_ = std::make_unique<workload::BackgroundLoad>(
        simulation, *cpus_, *memory_, address_space_, cfg.background);
  }
}

Cluster::Cluster(const ExperimentConfig& cfg)
    : engine_(cfg.seed, cfg.sim.shards, lookahead_of(cfg)),
      network_(engine_, cfg.switch_latency) {
  SAISIM_CHECK(cfg.num_clients > 0);
  SAISIM_CHECK(cfg.num_servers > 0);
  const int num_shards = engine_.num_shards();

  // Fault injection: only instantiated when a knob is armed, so the
  // default (lossless) fabric pays nothing beyond one empty-check per send
  // and its metrics/counters are byte-identical to pre-injector builds.
  // One injector per shard (see net::shard_fault_seed); shard 0's keeps the
  // configured seed so 1-shard faulty runs replay the single-injector
  // fabric bit-for-bit.
  if (net::fault_enabled(cfg.fault)) {
    std::vector<net::FaultInjector*> per_shard;
    for (int r = 0; r < num_shards; ++r) {
      net::FaultConfig fc = cfg.fault;
      fc.seed = net::shard_fault_seed(cfg.fault.seed, r);
      faults_.push_back(std::make_unique<net::FaultInjector>(fc));
      per_shard.push_back(faults_.back().get());
    }
    network_.set_fault_injectors(std::move(per_shard));
  }

  // Topology: I/O servers, the metadata server, then the client machines.
  auto add_node = [this, &cfg](Bandwidth bw, int shard) {
    node_shards_.push_back(shard);
    return network_.add_node(bw, bw, cfg.link_latency, shard);
  };
  server_nodes_.reserve(static_cast<u64>(cfg.num_servers));
  for (int s = 0; s < cfg.num_servers; ++s) {
    server_nodes_.push_back(
        add_node(cfg.server.nic_bandwidth, server_shard(num_shards, s)));
  }
  meta_node_ =
      add_node(Bandwidth::gbit(1.0), server_shard(num_shards, cfg.num_servers));

  servers_.reserve(server_nodes_.size());
  for (NodeId n : server_nodes_) {
    servers_.push_back(std::make_unique<pfs::IoServer>(
        engine_.shard(shard_of(n)), network_, n, cfg.server.io,
        cfg.server.cache, cfg.server.sched));
  }
  meta_ = std::make_unique<pfs::MetaServer>(engine_.shard(shard_of(meta_node_)),
                                            network_, meta_node_, cfg.meta);

  clients_.reserve(static_cast<u64>(cfg.num_clients));
  for (int c = 0; c < cfg.num_clients; ++c) {
    const NodeId node = add_node(cfg.client.nic_bandwidth, 0);
    clients_.push_back(std::make_unique<ClientNode>(
        sim(), network_, cfg, node, server_nodes_, meta_node_));
  }
}

}  // namespace saisim
