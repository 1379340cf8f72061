// Tests for sleep/wakeup power management (Section 6 extension): announced
// sleep windows must not trigger false detections; silent sleeping must
// (that is the hazard the paper flags); clock skew must be tolerated up to
// a fraction of Thop.

#include <gtest/gtest.h>

#include "power/duty_cycle.h"
#include "sim/scenario.h"

namespace cfds {
namespace {

ScenarioConfig base_config(std::uint64_t seed = 61) {
  ScenarioConfig config;
  config.width = 500.0;
  config.height = 350.0;
  config.node_count = 220;
  config.loss_p = 0.0;
  config.seed = seed;
  return config;
}

TEST(DutyCycle, AnnouncedSleepersAreNotFalselyDetected) {
  Scenario scenario(base_config());
  scenario.setup();
  scenario.run_epochs(1);

  DutyCycleConfig dc_config;
  dc_config.sleep_fraction = 0.3;
  dc_config.sleep_epochs = 2;
  dc_config.announce = true;
  DutyCycleScheduler scheduler(scenario.network(), scenario.fds(), dc_config,
                               Rng(5));
  const auto sleepers = scheduler.begin_window(
      scenario.network().simulator().now(),
      scenario.config().fds.heartbeat_interval);
  ASSERT_GT(sleepers.size(), 10u);

  scenario.run_epochs(4);  // covers the window and the wake-up
  EXPECT_EQ(scenario.metrics().false_detections(), 0u);
  EXPECT_EQ(scheduler.asleep_now(), 0u);  // everyone woke up
}

TEST(DutyCycle, SilentSleepersAreFalselyDetected) {
  Scenario scenario(base_config());
  scenario.setup();
  scenario.run_epochs(1);

  DutyCycleConfig dc_config;
  dc_config.sleep_fraction = 0.3;
  dc_config.sleep_epochs = 2;
  dc_config.announce = false;  // the paper's hazard configuration
  DutyCycleScheduler scheduler(scenario.network(), scenario.fds(), dc_config,
                               Rng(5));
  const auto sleepers = scheduler.begin_window(
      scenario.network().simulator().now(),
      scenario.config().fds.heartbeat_interval);
  ASSERT_GT(sleepers.size(), 10u);

  scenario.run_epochs(2);
  // Every silent sleeper is reported failed by its CH (p = 0: no evidence
  // of life can possibly arrive).
  EXPECT_EQ(scenario.metrics().false_detections(), sleepers.size());
}

TEST(DutyCycle, SleepersRejoinSeamlesslyAfterWaking) {
  Scenario scenario(base_config());
  scenario.setup();
  scenario.run_epochs(1);

  DutyCycleConfig dc_config;
  dc_config.sleep_fraction = 0.25;
  dc_config.announce = true;
  DutyCycleScheduler scheduler(scenario.network(), scenario.fds(), dc_config,
                               Rng(7));
  const auto sleepers = scheduler.begin_window(
      scenario.network().simulator().now(),
      scenario.config().fds.heartbeat_interval);
  scenario.run_epochs(6);
  EXPECT_EQ(scenario.metrics().false_detections(), 0u);
  // After the window, a real crash among former sleepers is still caught.
  ASSERT_FALSE(sleepers.empty());
  scenario.network().crash(sleepers.front());
  scenario.run_epochs(1);
  const auto first = scenario.metrics().first_detection(sleepers.front());
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->suspect_was_alive);
}

TEST(DutyCycle, ExpiredExemptionNoLongerShieldsACrash) {
  // A node announces 1 epoch of sleep but then crashes while asleep: after
  // the exemption runs out the CH must flag it.
  Scenario scenario(base_config());
  scenario.setup();
  scenario.run_epochs(1);

  DutyCycleConfig dc_config;
  dc_config.sleep_fraction = 1.0;  // deterministic pick: all OMs
  dc_config.sleep_epochs = 1;
  DutyCycleScheduler scheduler(scenario.network(), scenario.fds(), dc_config,
                               Rng(9));
  const auto sleepers = scheduler.begin_window(
      scenario.network().simulator().now(),
      scenario.config().fds.heartbeat_interval);
  ASSERT_FALSE(sleepers.empty());
  const NodeId victim = sleepers.front();
  scenario.network().crash(victim);  // dies in its sleep

  scenario.run_epochs(1);  // exempt execution: no detection yet
  EXPECT_FALSE(scenario.metrics().first_detection(victim).has_value());
  scenario.run_epochs(2);  // exemption spent: now it must be flagged
  EXPECT_TRUE(scenario.metrics().first_detection(victim).has_value());
}

TEST(DutyCycle, DigestRelayShieldsLostNotices) {
  // Under loss, a sleeper's notice can miss the CH; the digest relay lets
  // any member that overheard it deliver the exemption instead.
  auto false_positives = [](bool relay) {
    ScenarioConfig config = base_config(67);
    config.loss_p = 0.25;
    config.fds.relay_sleep_notices = relay;
    Scenario scenario(config);
    scenario.setup();
    scenario.run_epochs(1);
    DutyCycleConfig dc;
    dc.sleep_fraction = 0.4;
    dc.sleep_epochs = 2;
    DutyCycleScheduler scheduler(scenario.network(), scenario.fds(), dc,
                                 Rng(11));
    // Side effect only: who sleeps is irrelevant to the detection count.
    (void)scheduler.begin_window(scenario.network().simulator().now(),
                                 scenario.config().fds.heartbeat_interval);
    scenario.run_epochs(3);
    return scenario.metrics().false_detections();
  };
  const std::size_t without = false_positives(false);
  const std::size_t with = false_positives(true);
  EXPECT_GT(without, 0u);  // the leak exists at p = 0.25
  EXPECT_LT(with, without);
  EXPECT_LE(with, 1u);  // and the relay all but eliminates it
}

TEST(ClockSkew, SmallSkewIsHarmless) {
  ScenarioConfig config = base_config();
  config.fds.max_clock_skew = SimTime::millis(10);  // Thop / 10
  Scenario scenario(config);
  scenario.setup();
  scenario.run_epochs(3);
  EXPECT_EQ(scenario.metrics().false_detections(), 0u);

  NodeId victim = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      victim = view->self();
      break;
    }
  }
  scenario.network().crash(victim);
  scenario.run_epochs(2);
  EXPECT_TRUE(scenario.metrics().first_detection(victim).has_value());
}

TEST(ClockSkew, LargeSkewBreaksRoundAlignment) {
  // Skew comparable to a full round: heartbeats land outside their round,
  // evidence goes missing, and false detections appear — quantifying the
  // paper's "clock rate close to accurate" assumption.
  ScenarioConfig config = base_config(63);
  config.loss_p = 0.0;
  config.fds.max_clock_skew = SimTime::millis(250);  // 2.5 * Thop
  Scenario scenario(config);
  scenario.setup();
  scenario.run_epochs(3);
  EXPECT_GT(scenario.metrics().false_detections(), 0u);
}

}  // namespace
}  // namespace cfds
