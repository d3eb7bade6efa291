// The partition function and node numbering of saisim::Cluster: which shard
// every node homes on, and the node ids the integration fixtures index by.
#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/test_cluster.hpp"

namespace saisim {
namespace {

ExperimentConfig four_servers(int shards) {
  ExperimentConfig cfg = test::cluster_config();
  cfg.num_clients = 2;
  cfg.sim.shards = shards;
  return cfg;
}

TEST(Cluster, NodeIdsAreServersThenMetaThenClients) {
  Cluster cluster(four_servers(1));
  ASSERT_EQ(cluster.num_servers(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.server_node(i), i);
    EXPECT_EQ(cluster.server(i).node(), i);
  }
  EXPECT_EQ(cluster.meta_node(), 4);
  ASSERT_EQ(cluster.num_clients(), 2);
  EXPECT_EQ(cluster.client(0).nic().node(), 5);
  EXPECT_EQ(cluster.client(1).nic().node(), 6);
  EXPECT_EQ(cluster.network().num_nodes(), 7);
}

TEST(Cluster, OneShardHomesEveryNodeOnShardZero) {
  Cluster cluster(four_servers(1));
  ASSERT_EQ(cluster.engine().num_shards(), 1);
  for (NodeId n = 0; n < cluster.network().num_nodes(); ++n) {
    EXPECT_EQ(cluster.shard_of(n), 0) << n;
  }
}

TEST(Cluster, ThreeShardsSpreadServersAndKeepClientsOnControlShard) {
  Cluster cluster(four_servers(3));
  ASSERT_EQ(cluster.engine().num_shards(), 3);
  std::vector<int> server_shards;
  for (int i = 0; i < cluster.num_servers(); ++i) {
    server_shards.push_back(cluster.shard_of(cluster.server_node(i)));
  }
  EXPECT_EQ(server_shards, (std::vector<int>{1, 2, 1, 2}));
  EXPECT_EQ(cluster.shard_of(cluster.meta_node()), 1);
  for (int c = 0; c < cluster.num_clients(); ++c) {
    EXPECT_EQ(cluster.shard_of(cluster.client(c).nic().node()), 0) << c;
  }
}

TEST(Cluster, FaultInjectorsArePerShardOnlyWhenArmed) {
  EXPECT_TRUE(Cluster(four_servers(3)).fault_injectors().empty());
  ExperimentConfig cfg = four_servers(3);
  cfg.fault.loss_rate = 0.1;
  cfg.fault.seed = 7;
  const Cluster cluster(cfg);
  ASSERT_EQ(cluster.fault_injectors().size(), 3u);
}

}  // namespace
}  // namespace saisim
