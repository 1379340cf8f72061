// Tests for the Scenario harness itself: setup paths, replenishment,
// crash scheduling, epoch accounting, phi and the paper's density.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/scenario.h"

namespace cfds {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.width = 400.0;
  config.height = 300.0;
  config.node_count = 120;
  config.loss_p = 0.0;
  config.seed = 11;
  return config;
}

TEST(Scenario, SetupInstallsViewsForEveryNode) {
  Scenario scenario(small_config());
  scenario.setup();
  const auto views = scenario.views();
  EXPECT_EQ(views.size(), 120u);
  for (MembershipView* view : views) {
    ASSERT_NE(view, nullptr);
  }
  EXPECT_GT(scenario.cluster_count(), 0u);
  EXPECT_EQ(scenario.epochs_run(), 0u);
}

TEST(Scenario, EpochCounterAdvances) {
  Scenario scenario(small_config());
  scenario.setup();
  scenario.run_epochs(3);
  EXPECT_EQ(scenario.epochs_run(), 3u);
  scenario.run_epochs(2);
  EXPECT_EQ(scenario.epochs_run(), 5u);
}

TEST(Scenario, AliveOrdinaryMembersAreInNidOrderAndSkipTheDead) {
  Scenario scenario(small_config());
  scenario.setup();
  const std::vector<NodeId> before = scenario.alive_ordinary_members();
  ASSERT_GE(before.size(), 2u);
  EXPECT_TRUE(std::is_sorted(before.begin(), before.end()));
  for (NodeId id : before) {
    EXPECT_EQ(scenario.views()[id.value()]->role(), Role::kOrdinaryMember);
  }
  scenario.network().crash(before.front());
  EXPECT_EQ(scenario.alive_ordinary_members(),
            std::vector<NodeId>(before.begin() + 1, before.end()));
}

TEST(Scenario, ScheduledCrashHappensMidRun) {
  Scenario scenario(small_config());
  scenario.setup();
  NodeId victim = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      victim = view->self();
      break;
    }
  }
  // Crash between epochs 2 and 3.
  scenario.network().schedule_crash(
      victim, scenario.config().fds.heartbeat_interval * 2 +
                  scenario.config().fds.heartbeat_interval);
  scenario.run_epochs(5);
  EXPECT_FALSE(scenario.network().node(victim).alive());
  ASSERT_TRUE(scenario.metrics().first_detection(victim).has_value());
}

TEST(Scenario, ReplenishedNodesJoinViaSubscription) {
  Scenario scenario(small_config());
  scenario.setup();
  scenario.run_epochs(1);
  const auto added = scenario.replenish(15);
  EXPECT_EQ(added.size(), 15u);
  EXPECT_EQ(scenario.network().node_count(), 135u);
  scenario.run_epochs(2);

  std::size_t affiliated = 0;
  const auto views = scenario.views();
  for (NodeId id : added) {
    ASSERT_LT(id.value(), views.size());
    if (views[id.value()]->affiliated()) {
      ++affiliated;
      EXPECT_EQ(views[id.value()]->role(), Role::kOrdinaryMember);
      EXPECT_TRUE(scenario.network().node(id).marked());
    }
  }
  // Most land within some clusterhead's range at this density.
  EXPECT_GT(affiliated, 10u);
}

TEST(Scenario, ReplenishedNodesAreMonitoredOnceAdmitted) {
  Scenario scenario(small_config());
  scenario.setup();
  scenario.run_epochs(1);
  const auto added = scenario.replenish(10);
  scenario.run_epochs(2);

  NodeId admitted = NodeId::invalid();
  const auto views = scenario.views();
  for (NodeId id : added) {
    if (views[id.value()]->affiliated()) {
      admitted = id;
      break;
    }
  }
  ASSERT_TRUE(admitted.is_valid());
  scenario.network().crash(admitted);
  scenario.run_epochs(1);
  const auto first = scenario.metrics().first_detection(admitted);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->suspect_was_alive);
}

TEST(Scenario, ViewsComeFromFormationAgentsInDistributedMode) {
  ScenarioConfig config = small_config();
  config.node_count = 150;
  config.distributed_formation = true;
  Scenario scenario(config);
  const SimTime settled = scenario.setup();
  EXPECT_GT(settled, SimTime::zero());  // formation consumed simulated time
  EXPECT_GT(scenario.affiliation_rate(), 0.9);
  scenario.run_epochs(1);
  EXPECT_EQ(scenario.metrics().false_detections(), 0u);
}

TEST(Scenario, FdsHeartbeatIntervalIsHonoured) {
  ScenarioConfig config = small_config();
  config.fds.heartbeat_interval = SimTime::seconds(3);
  Scenario scenario(config);
  const SimTime settled = scenario.setup();
  // Epochs start one phi after formation settles; two epochs end at +3phi,
  // the start of the third.
  EXPECT_EQ(scenario.run_epochs(2), settled + SimTime::seconds(9));
  EXPECT_EQ(scenario.network().simulator().now(),
            settled + SimTime::seconds(9));
}

TEST(Scenario, PaperDensity) {
  const ScenarioConfig base = paper_density(500);
  EXPECT_EQ(base.node_count, 500u);
  EXPECT_EQ(base.width, 700.0);
  EXPECT_EQ(base.height, 450.0);
  const ScenarioConfig quad = paper_density(2000);
  EXPECT_EQ(quad.node_count, 2000u);
  EXPECT_EQ(quad.width, 1400.0);
  EXPECT_EQ(quad.height, 900.0);
}

TEST(Scenario, ForwarderCanBeDisabled) {
  ScenarioConfig config = small_config();
  config.enable_forwarder = false;
  Scenario scenario(config);
  scenario.setup();
  EXPECT_EQ(scenario.forwarder(), nullptr);
  scenario.run_epochs(1);

  NodeId victim = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      victim = view->self();
      break;
    }
  }
  scenario.network().crash(victim);
  scenario.run_epochs(3);
  // Local detection still works; knowledge stays confined to the cluster.
  ASSERT_TRUE(scenario.metrics().first_detection(victim).has_value());
  const double coverage =
      knowledge_coverage(scenario.fds(), scenario.network(), victim);
  EXPECT_LT(coverage, 1.0);
  EXPECT_GT(coverage, 0.0);
}

}  // namespace
}  // namespace cfds
