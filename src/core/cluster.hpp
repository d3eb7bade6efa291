// The simulated cluster of the paper's testbed: N I/O servers, one metadata
// server and `num_clients` multi-core client machines behind one switch,
// wired from an ExperimentConfig on a sharded sim::Engine. run_experiment
// builds exactly one of these per run; integration tests build one and
// drive its actors through the typed handles below.
#pragma once

#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "pfs/io_server.hpp"
#include "pfs/meta_server.hpp"
#include "sais/sais_client.hpp"
#include "sim/engine.hpp"

namespace saisim {

/// One simulated client machine and its software stack.
class ClientNode {
 public:
  ClientNode(sim::Simulation& simulation, net::Network& network,
             const ExperimentConfig& cfg, NodeId node,
             std::vector<NodeId> server_nodes, NodeId meta_node);

  cpu::CpuSystem& cpus() { return *cpus_; }
  mem::MemorySystem& memory() { return *memory_; }
  apic::IoApic& io_apic() { return *io_apic_; }
  net::ClientNic& nic() { return *nic_; }
  pfs::PfsClient& pfs() { return *pfs_; }
  mem::AddressSpace& address_space() { return address_space_; }
  workload::BackgroundLoad* background() { return background_.get(); }
  const sais::SaisClient* sais() const { return sais_.get(); }

 private:
  mem::AddressSpace address_space_;
  std::unique_ptr<cpu::CpuSystem> cpus_;
  std::unique_ptr<mem::MemorySystem> memory_;
  std::unique_ptr<apic::IoApic> io_apic_;
  std::unique_ptr<net::ClientNic> nic_;
  std::unique_ptr<pfs::PfsClient> pfs_;
  std::unique_ptr<sais::SaisClient> sais_;
  std::unique_ptr<workload::BackgroundLoad> background_;
};

/// Node ids follow construction order: servers 0..N-1, the metadata
/// server N, then the clients N+1.. . Actors are built in the same order
/// (servers, meta, then per client APIC -> NIC -> PFS client).
class Cluster {
 public:
  explicit Cluster(const ExperimentConfig& cfg);

  sim::Engine& engine() { return engine_; }
  /// Shard 0: the control shard every client homes on.
  sim::Simulation& sim() { return engine_.shard(0); }
  net::Network& network() { return network_; }

  int num_servers() const { return static_cast<int>(servers_.size()); }
  pfs::IoServer& server(int i) { return *servers_[static_cast<u64>(i)]; }
  NodeId server_node(int i) const { return server_nodes_[static_cast<u64>(i)]; }
  pfs::MetaServer& meta() { return *meta_; }
  NodeId meta_node() const { return meta_node_; }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  ClientNode& client(int c) { return *clients_[static_cast<u64>(c)]; }

  /// Home shard of node `n` (the partition function's verdict).
  int shard_of(NodeId n) const { return node_shards_[static_cast<u64>(n)]; }

  /// One injector per shard in rank order; empty on a lossless fabric.
  const std::vector<std::unique_ptr<net::FaultInjector>>& fault_injectors()
      const {
    return faults_;
  }

 private:
  sim::Engine engine_;
  net::Network network_;
  std::vector<std::unique_ptr<net::FaultInjector>> faults_;
  std::vector<NodeId> server_nodes_;
  std::vector<std::unique_ptr<pfs::IoServer>> servers_;
  NodeId meta_node_ = kNoNode;
  std::unique_ptr<pfs::MetaServer> meta_;
  std::vector<std::unique_ptr<ClientNode>> clients_;
  std::vector<int> node_shards_;
};

}  // namespace saisim
