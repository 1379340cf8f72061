// Unit tests for src/cluster: roles, membership views, the centralized
// directory.

#include <gtest/gtest.h>

#include "cluster/directory.h"
#include "cluster/membership.h"
#include "cluster/roles.h"
#include "net/graph.h"
#include "net/topology.h"

namespace cfds {
namespace {

ClusterView sample_cluster() {
  ClusterView c;
  c.id = ClusterId{0};
  c.clusterhead = NodeId{0};
  c.members = {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}};
  c.deputies = {NodeId{1}, NodeId{2}};
  GatewayLink link;
  link.neighbor_cluster = ClusterId{9};
  link.neighbor_clusterhead = NodeId{9};
  link.gateway = NodeId{4};
  link.backups = {NodeId{5}};
  c.links.push_back(link);
  return c;
}

TEST(Roles, RoleResolution) {
  const ClusterView c = sample_cluster();
  EXPECT_EQ(c.role_of(NodeId{0}), Role::kClusterhead);
  EXPECT_EQ(c.role_of(NodeId{1}), Role::kDeputy);
  EXPECT_EQ(c.role_of(NodeId{4}), Role::kGateway);
  EXPECT_EQ(c.role_of(NodeId{5}), Role::kBackupGateway);
  EXPECT_EQ(c.role_of(NodeId{3}), Role::kOrdinaryMember);
  EXPECT_EQ(c.role_of(NodeId{42}), Role::kUnaffiliated);
}

TEST(Roles, GatewayLinkRanks) {
  const ClusterView cluster = sample_cluster();
  const GatewayLink& link = cluster.links.front();
  EXPECT_EQ(link.rank_of(NodeId{4}), std::optional<std::size_t>(0));
  EXPECT_EQ(link.rank_of(NodeId{5}), std::optional<std::size_t>(1));
  EXPECT_EQ(link.rank_of(NodeId{1}), std::nullopt);
}

TEST(Roles, PopulationIncludesClusterhead) {
  EXPECT_EQ(sample_cluster().population(), 6u);
  EXPECT_TRUE(sample_cluster().is_member(NodeId{0}));
  EXPECT_TRUE(sample_cluster().is_member(NodeId{3}));
  EXPECT_FALSE(sample_cluster().is_member(NodeId{10}));
}

TEST(Membership, UnaffiliatedByDefault) {
  MembershipView view(NodeId{7});
  EXPECT_FALSE(view.affiliated());
  EXPECT_EQ(view.role(), Role::kUnaffiliated);
  int links = 0;
  view.for_each_link_role([&](const GatewayLink&, std::size_t) { ++links; });
  EXPECT_EQ(links, 0);
}

TEST(Membership, RolesAfterInstall) {
  MembershipView view(NodeId{1});
  view.set_cluster(sample_cluster());
  EXPECT_TRUE(view.affiliated());
  EXPECT_TRUE(view.is_primary_deputy());
  EXPECT_FALSE(view.is_clusterhead());
}

TEST(Membership, MyLinksReportsRank) {
  const auto ranks = [](NodeId self) {
    MembershipView view(self);
    view.set_cluster(sample_cluster());
    std::vector<std::size_t> out;
    view.for_each_link_role(
        [&](const GatewayLink&, std::size_t rank) { out.push_back(rank); });
    return out;
  };
  EXPECT_EQ(ranks(NodeId{4}), std::vector<std::size_t>{0});
  EXPECT_EQ(ranks(NodeId{5}), std::vector<std::size_t>{1});
  EXPECT_TRUE(ranks(NodeId{3}).empty());
}

TEST(Membership, TakeoverPromotesDeputy) {
  MembershipView view(NodeId{3});
  view.set_cluster(sample_cluster());
  view.apply_takeover(NodeId{1});
  EXPECT_EQ(view.cluster()->clusterhead, NodeId{1});
  EXPECT_EQ(view.cluster()->id, ClusterId{0});  // identity preserved
  EXPECT_FALSE(view.cluster()->is_member(NodeId{0}));
  EXPECT_EQ(view.cluster()->deputies.front(), NodeId{2});
}

TEST(Membership, RemoveMembersPromotesBackupGateway) {
  MembershipView view(NodeId{3});
  view.set_cluster(sample_cluster());
  view.remove_members({NodeId{4}});  // the gateway fails
  const GatewayLink& link = view.cluster()->links.front();
  EXPECT_EQ(link.gateway, NodeId{5});  // backup promoted
  EXPECT_TRUE(link.backups.empty());
  view.remove_members({NodeId{5}});
  EXPECT_FALSE(view.cluster()->links.front().gateway.is_valid());
}

TEST(Membership, AdmitIsIdempotent) {
  MembershipView view(NodeId{0});
  view.set_cluster(sample_cluster());
  view.admit_members({NodeId{8}, NodeId{8}, NodeId{1}});
  EXPECT_EQ(view.cluster()->members.size(), 6u);  // 8 added once, 1 existing
}

TEST(Membership, UpdateLinkNeighbor) {
  MembershipView view(NodeId{4});
  view.set_cluster(sample_cluster());
  view.update_link_neighbor(ClusterId{9}, NodeId{11});
  EXPECT_EQ(view.cluster()->links.front().neighbor_clusterhead, NodeId{11});
}

class DirectoryFixture : public ::testing::Test {
 protected:
  DirectoryFixture() {
    Rng rng(77);
    positions_ = uniform_rect(250, 700.0, 450.0, rng);
    directory_ = ClusterDirectory::build(positions_, 100.0);
  }
  std::vector<Vec2> positions_;
  ClusterDirectory directory_;
};

TEST_F(DirectoryFixture, EveryNonIsolatedNodeIsCovered) {
  const UnitDiskGraph graph(positions_, 100.0);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const bool covered = directory_.cluster_of(NodeId{std::uint32_t(i)});
    EXPECT_EQ(covered, graph.degree(i) > 0) << "node " << i;
  }
}

TEST_F(DirectoryFixture, MembersAreOneHopFromClusterhead) {
  for (const ClusterView& c : directory_.clusters()) {
    const Vec2 ch = positions_[c.clusterhead.value()];
    for (NodeId m : c.members) {
      EXPECT_TRUE(within_range(positions_[m.value()], ch, 100.0));
    }
  }
}

TEST_F(DirectoryFixture, ClusterheadHasLowestNidInCluster) {
  for (const ClusterView& c : directory_.clusters()) {
    for (NodeId m : c.members) EXPECT_LT(c.clusterhead, m);
  }
}

TEST_F(DirectoryFixture, MembershipIsAPartition) {
  std::size_t covered = 0;
  for (const ClusterView& c : directory_.clusters()) covered += c.population();
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    if (directory_.cluster_of(NodeId{std::uint32_t(i)})) ++distinct;
  }
  EXPECT_EQ(covered, distinct);  // no node in two clusters (F3 for members)
}

TEST_F(DirectoryFixture, GatewaysHearBothClusterheads) {
  for (const ClusterView& c : directory_.clusters()) {
    const Vec2 my_ch = positions_[c.clusterhead.value()];
    for (const GatewayLink& link : c.links) {
      const Vec2 other_ch = positions_[link.neighbor_clusterhead.value()];
      for (NodeId g : {link.gateway}) {
        EXPECT_TRUE(within_range(positions_[g.value()], my_ch, 100.0));
        EXPECT_TRUE(within_range(positions_[g.value()], other_ch, 100.0));
      }
      for (NodeId b : link.backups) {
        EXPECT_TRUE(within_range(positions_[b.value()], other_ch, 100.0));
      }
    }
  }
}

TEST_F(DirectoryFixture, LinksAreSymmetric) {
  for (const ClusterView& c : directory_.clusters()) {
    for (const GatewayLink& link : c.links) {
      const ClusterView* other = nullptr;
      for (const ClusterView& cand : directory_.clusters()) {
        if (cand.id == link.neighbor_cluster) other = &cand;
      }
      ASSERT_NE(other, nullptr);
      bool found = false;
      for (const GatewayLink& back : other->links) {
        if (back.neighbor_cluster == c.id) {
          found = true;
          EXPECT_EQ(back.gateway, link.gateway);
          EXPECT_EQ(back.backups, link.backups);
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST_F(DirectoryFixture, DeputiesRankedByDegree) {
  const UnitDiskGraph graph(positions_, 100.0);
  for (const ClusterView& c : directory_.clusters()) {
    for (std::size_t i = 0; i + 1 < c.deputies.size(); ++i) {
      EXPECT_GE(graph.degree(c.deputies[i].value()),
                graph.degree(c.deputies[i + 1].value()));
    }
  }
}

TEST(Directory, SingleClusterByFiat) {
  const auto dir = ClusterDirectory::single_cluster(10);
  ASSERT_EQ(dir.clusters().size(), 1u);
  const ClusterView& c = dir.clusters().front();
  EXPECT_EQ(c.clusterhead, NodeId{0});
  EXPECT_EQ(c.population(), 10u);
  EXPECT_EQ(c.deputies.size(), 2u);
  EXPECT_EQ(c.deputies.front(), NodeId{1});
}

TEST(Directory, IsolatedNodesStayOutside) {
  const std::vector<Vec2> pts{{0, 0}, {10, 0}, {5000, 5000}};
  const auto dir = ClusterDirectory::build(pts, 100.0);
  ASSERT_EQ(dir.clusters().size(), 1u);
  EXPECT_EQ(dir.cluster_of(NodeId{2}), nullptr);
}

}  // namespace
}  // namespace cfds
