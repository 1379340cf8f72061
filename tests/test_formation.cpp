// Tests for the distributed cluster-formation protocol, checked against the
// feature list F1-F5 and, under perfect links, against the centralized
// reference directory.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "cluster/directory.h"
#include "cluster/formation.h"
#include "net/graph.h"
#include "net/topology.h"

namespace cfds {
namespace {

struct Deployment {
  explicit Deployment(std::size_t n, double loss_p = 0.0,
                      std::uint64_t seed = 5) {
    NetworkConfig config;
    config.seed = seed;
    network = std::make_unique<Network>(
        config, loss_p == 0.0
                    ? std::unique_ptr<LossModel>(new PerfectLinks())
                    : std::unique_ptr<LossModel>(new BernoulliLoss(loss_p)));
    Rng rng(seed);
    positions = uniform_rect(n, 600.0, 400.0, rng);
    network->add_nodes(positions);
    formation = std::make_unique<FormationProtocol>(*network);
  }

  std::unique_ptr<Network> network;
  std::vector<Vec2> positions;
  std::unique_ptr<FormationProtocol> formation;
};

TEST(Formation, AllNonIsolatedNodesAffiliate) {
  Deployment d(200);
  d.formation->run(4);
  const UnitDiskGraph graph(d.positions, 100.0);
  for (FormationAgent* agent : d.formation->agents()) {
    const bool isolated = graph.degree(agent->id().value()) == 0;
    EXPECT_EQ(agent->view().affiliated(), !isolated)
        << "node " << agent->id();
  }
}

TEST(Formation, MembersAreOneHopFromTheirClusterhead) {
  Deployment d(200);
  d.formation->run(4);
  for (FormationAgent* agent : d.formation->agents()) {
    if (!agent->view().affiliated()) continue;
    const NodeId ch = agent->view().cluster()->clusterhead;
    EXPECT_TRUE(within_range(d.positions[agent->id().value()],
                             d.positions[ch.value()], 100.0));
  }
}

TEST(Formation, MatchesCentralizedReferenceOnPerfectLinks) {
  Deployment d(150);
  d.formation->run(4);
  const auto reference = ClusterDirectory::build(d.positions, 100.0);
  for (FormationAgent* agent : d.formation->agents()) {
    const ClusterView* expected = reference.cluster_of(agent->id());
    if (expected == nullptr) {
      EXPECT_FALSE(agent->view().affiliated());
      continue;
    }
    ASSERT_TRUE(agent->view().affiliated()) << "node " << agent->id();
    EXPECT_EQ(agent->view().cluster()->id, expected->id)
        << "node " << agent->id();
    EXPECT_EQ(agent->view().cluster()->clusterhead, expected->clusterhead);
  }
}

TEST(Formation, ClusterheadViewsAgreeWithMemberViews) {
  Deployment d(150);
  d.formation->run(4);
  // Every member's (cluster, CH) pair must match what that CH believes.
  std::map<ClusterId, NodeId> ch_by_cluster;
  for (FormationAgent* agent : d.formation->agents()) {
    if (agent->view().is_clusterhead()) {
      ch_by_cluster[agent->view().cluster()->id] = agent->id();
    }
  }
  for (FormationAgent* agent : d.formation->agents()) {
    if (!agent->view().affiliated()) continue;
    const auto it = ch_by_cluster.find(agent->view().cluster()->id);
    ASSERT_NE(it, ch_by_cluster.end());
    EXPECT_EQ(agent->view().cluster()->clusterhead, it->second);
  }
}

TEST(Formation, GatewayAffiliationIsUnique) {
  // Feature F3: every gateway is a member of exactly one cluster.
  Deployment d(250);
  d.formation->run(4);
  std::map<NodeId, std::set<ClusterId>> memberships;
  for (FormationAgent* agent : d.formation->agents()) {
    if (agent->view().affiliated()) {
      memberships[agent->id()].insert(agent->view().cluster()->id);
    }
  }
  for (const auto& [node, clusters] : memberships) {
    EXPECT_EQ(clusters.size(), 1u) << "node " << node;
  }
}

TEST(Formation, DenseFieldsYieldGatewayLinks) {
  Deployment d(400);
  d.formation->run(4);
  std::size_t links = 0;
  for (FormationAgent* agent : d.formation->agents()) {
    if (agent->view().is_clusterhead()) {
      links += agent->view().cluster()->links.size();
    }
  }
  EXPECT_GT(links, 0u);
}

TEST(Formation, GatewayLinksHaveRankedBackups) {
  // Feature F2: dense deployments should produce BGWs on at least some links.
  Deployment d(400);
  d.formation->run(4);
  std::size_t with_backups = 0;
  for (FormationAgent* agent : d.formation->agents()) {
    if (!agent->view().is_clusterhead()) continue;
    for (const GatewayLink& link : agent->view().cluster()->links) {
      EXPECT_TRUE(link.gateway.is_valid());
      EXPECT_LT(link.gateway, link.backups.empty() ? NodeId::invalid()
                                                   : link.backups.front());
      if (!link.backups.empty()) ++with_backups;
    }
  }
  EXPECT_GT(with_backups, 0u);
}

TEST(Formation, DeputiesAreDesignated) {
  Deployment d(300);
  d.formation->run(4);
  for (FormationAgent* agent : d.formation->agents()) {
    if (!agent->view().is_clusterhead()) continue;
    const ClusterView& c = *agent->view().cluster();
    if (c.members.size() >= 2) {
      EXPECT_GE(c.deputies.size(), 1u) << "cluster " << c.id;
    }
  }
}

TEST(Formation, ExtraIterationsAreDegenerate) {
  // Feature F4: once everyone is marked, further iterations change nothing
  // and cost only the shared heartbeat (probe) round.
  Deployment d(150);
  d.formation->run(4);
  std::map<NodeId, ClusterId> before;
  for (FormationAgent* agent : d.formation->agents()) {
    if (agent->view().affiliated()) {
      before[agent->id()] = agent->view().cluster()->id;
    }
  }
  const std::uint64_t frames_before =
      d.network->channel().stats().transmissions;
  d.formation->run(2, d.network->simulator().now());
  for (FormationAgent* agent : d.formation->agents()) {
    if (agent->view().affiliated()) {
      EXPECT_EQ(before.at(agent->id()), agent->view().cluster()->id);
    }
  }
  const std::uint64_t extra =
      d.network->channel().stats().transmissions - frames_before;
  EXPECT_EQ(extra, 2u * 150u);  // exactly the probe rounds
}

TEST(Formation, LateArrivalsJoinExistingClusters) {
  Deployment d(100);
  d.formation->run(3);
  // Drop a newcomer inside the field; feature F4's open end means the next
  // iterations of the same protocol admit it.
  Node& newcomer = d.network->add_node({300.0, 200.0});
  d.formation->adopt_new_nodes();
  d.formation->run(2, d.network->simulator().now());
  EXPECT_TRUE(d.formation->agent_for(newcomer.id()).view().affiliated());
}

TEST(Formation, SurvivesMessageLoss) {
  Deployment d(300, /*loss_p=*/0.2, /*seed=*/11);
  d.formation->run(6);
  std::size_t affiliated = 0;
  for (FormationAgent* agent : d.formation->agents()) {
    if (agent->view().affiliated()) ++affiliated;
  }
  // Loss delays admission but iteration retries recover nearly everyone.
  EXPECT_GT(double(affiliated), 0.95 * 300);
}

// --- Pinned outcomes ------------------------------------------------------

// FNV-1a over 64-bit words: a stable digest of formation's outcome.
void fnv_mix(std::uint64_t& hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
}

// Runs four iterations on n = 300 under `loss` and digests every agent's
// view (cluster, CH, members, deputies, links with backups) and the cluster
// count. A storage change in FormationAgent must leave these digests as
// they are; a new value means formation's outcome changed.
std::uint64_t formation_digest(std::unique_ptr<LossModel> loss,
                               std::uint64_t seed) {
  NetworkConfig config;
  config.seed = seed;
  Network network(config, std::move(loss));
  Rng rng(seed);
  network.add_nodes(uniform_rect(300, 600.0, 400.0, rng));
  FormationProtocol formation(network);
  formation.run(4);
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const FormationAgent* agent : formation.agents()) {
    fnv_mix(hash, agent->id().value());
    if (!agent->view().affiliated()) {
      fnv_mix(hash, ~0ull);
      continue;
    }
    const ClusterView& view = *agent->view().cluster();
    fnv_mix(hash, view.id.value());
    fnv_mix(hash, view.clusterhead.value());
    fnv_mix(hash, view.members.size());
    for (NodeId m : view.members) fnv_mix(hash, m.value());
    fnv_mix(hash, view.deputies.size());
    for (NodeId d : view.deputies) fnv_mix(hash, d.value());
    fnv_mix(hash, view.links.size());
    for (const GatewayLink& link : view.links) {
      fnv_mix(hash, link.neighbor_cluster.value());
      fnv_mix(hash, link.neighbor_clusterhead.value());
      fnv_mix(hash, link.gateway.value());
      fnv_mix(hash, link.backups.size());
      for (NodeId b : link.backups) fnv_mix(hash, b.value());
    }
  }
  fnv_mix(hash, formation.cluster_count());
  return hash;
}

TEST(Formation, OutcomesArePinnedUnderBernoulliLoss) {
  const std::uint64_t expected[] = {4951622678957406031ull,
                                    9318192553821478012ull,
                                    10185237743526555691ull};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(formation_digest(std::make_unique<BernoulliLoss>(0.3), seed),
              expected[seed - 1])
        << "seed " << seed;
  }
}

TEST(Formation, OutcomesArePinnedUnderGilbertElliottLoss) {
  const std::uint64_t expected[] = {9219140401225729094ull,
                                    5195502960790020598ull,
                                    18435860451824389397ull};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(formation_digest(std::make_unique<GilbertElliottLoss>(
                                   GilbertElliottLoss::Params{}),
                               seed),
              expected[seed - 1])
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace cfds
