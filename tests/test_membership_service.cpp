// Group-membership behaviour on top of the FDS (Section 2.4: the service is
// "intended to support group membership management"): voluntary departure
// (unsubscription), plus robustness checks around the spatial index and
// crashes landing mid-execution.

#include <gtest/gtest.h>

#include "sim/scenario.h"

namespace cfds {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.width = 450.0;
  config.height = 300.0;
  config.node_count = 160;
  config.loss_p = 0.0;
  config.seed = 73;
  return config;
}

TEST(Unsubscription, LeaverIsRemovedWithoutFailureReport) {
  Scenario scenario(small_config());
  scenario.setup();
  scenario.run_epochs(1);

  NodeId leaver = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      leaver = view->self();
      break;
    }
  }
  ASSERT_TRUE(leaver.is_valid());
  const ClusterId old_cluster = scenario.views()[leaver.value()]->cluster()->id;

  scenario.fds().agent_for(leaver).announce_leave();
  scenario.run_epochs(2);

  // Not reported failed by anyone, and expected by no CH of its old cluster.
  EXPECT_TRUE(scenario.metrics().detections().empty());
  for (MembershipView* view : scenario.views()) {
    if (view->is_clusterhead() && view->cluster()->id == old_cluster) {
      EXPECT_FALSE(view->cluster()->is_member(leaver));
    }
  }
  EXPECT_FALSE(scenario.network().node(leaver).marked());
}

TEST(Unsubscription, LeaverCanResubscribeLater) {
  Scenario scenario(small_config());
  scenario.setup();
  scenario.run_epochs(1);

  NodeId leaver = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      leaver = view->self();
      break;
    }
  }
  scenario.fds().agent_for(leaver).announce_leave();
  scenario.run_epochs(1);
  EXPECT_FALSE(scenario.views()[leaver.value()]->affiliated());
  // Rejoining: the next (unmarked) heartbeat acts as a fresh subscription.
  scenario.fds().agent_for(leaver).rejoin();
  scenario.run_epochs(2);
  EXPECT_TRUE(scenario.views()[leaver.value()]->affiliated());
  EXPECT_TRUE(scenario.network().node(leaver).marked());
  EXPECT_TRUE(scenario.metrics().detections().empty());
}

TEST(Unsubscription, LateNoticeStillHonouredNextEpoch) {
  // A leave notice landing after this epoch's R-3 must be processed by the
  // next execution rather than the leaver being reported failed.
  Scenario scenario(small_config());
  scenario.setup();
  scenario.run_epochs(1);

  NodeId leaver = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      leaver = view->self();
      break;
    }
  }
  // Fire the notice between epochs, then power the node off (it walked
  // away): its silence next epoch must not be read as a crash.
  scenario.fds().agent_for(leaver).announce_leave();
  scenario.network().node(leaver).radio().set_powered(false);
  scenario.run_epochs(3);
  EXPECT_EQ(scenario.metrics().false_detections(), 0u);
  EXPECT_TRUE(scenario.metrics().detections().empty());
}

TEST(Robustness, CrashDuringExecutionIsStillHandled) {
  // The paper assumes nodes do not fail *during* an FDS execution; the
  // implementation must nevertheless stay consistent if one does (the node
  // heartbeats in R-1, then dies before its digest).
  Scenario scenario(small_config());
  scenario.setup();
  scenario.run_epochs(1);

  NodeId victim = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      victim = view->self();
      break;
    }
  }
  // Next epoch starts at now; kill the victim half a round in (after its
  // heartbeat, before its digest).
  const SimTime mid_r1 = scenario.network().simulator().now() +
                         SimTime::millis(150);
  scenario.network().schedule_crash(victim, mid_r1);
  scenario.run_epochs(1);
  // Its R-1 heartbeat counts as evidence, so this execution clears it...
  EXPECT_FALSE(scenario.metrics().first_detection(victim).has_value());
  scenario.run_epochs(1);
  // ...and the next execution flags it.
  const auto first = scenario.metrics().first_detection(victim);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->suspect_was_alive);
}

TEST(Robustness, MovingNodesKeepReceivingAfterReindex) {
  // Spatial-index regression check: a node teleported across many grid
  // cells must immediately hear traffic at its new location.
  Scenario scenario(small_config());
  scenario.setup();
  scenario.run_epochs(1);

  NodeId wanderer = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      wanderer = view->self();
      break;
    }
  }
  Node& node = scenario.network().node(wanderer);
  const auto frames_before = node.radio().counters().frames_received;
  // Move far across the field (several cells), near another CH.
  NodeId far_ch = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->is_clusterhead() &&
        distance(scenario.network().node(view->self()).position(),
                 node.position()) > 250.0) {
      far_ch = view->self();
    }
  }
  ASSERT_TRUE(far_ch.is_valid());
  node.radio().set_position(scenario.network().node(far_ch).position() +
                            Vec2{3.0, 3.0});
  scenario.run_epochs(1);
  EXPECT_GT(node.radio().counters().frames_received, frames_before);
}

}  // namespace
}  // namespace cfds
