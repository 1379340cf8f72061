// Property-based sweeps over loss probabilities and seeds: the invariants
// DESIGN.md section 6 calls out, checked on the full stack.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "sim/scenario.h"

namespace cfds {
namespace {

class LossSeedSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {
 protected:
  [[nodiscard]] double loss() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }

  [[nodiscard]] ScenarioConfig config() const {
    ScenarioConfig c;
    c.width = 500.0;
    c.height = 350.0;
    c.node_count = 220;
    c.loss_p = loss();
    c.seed = seed();
    return c;
  }
};

// Soundness: a crashed member generates no frames under fail-stop, so no
// evidence of life can exist — its CH must flag it in the very next
// execution REGARDLESS of the loss probability.
TEST_P(LossSeedSweep, CrashedMemberAlwaysDetectedNextEpoch) {
  Scenario scenario(config());
  scenario.setup();
  scenario.run_epochs(1);

  NodeId victim = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      victim = view->self();
      break;
    }
  }
  ASSERT_TRUE(victim.is_valid());
  scenario.network().crash(victim);
  scenario.run_epochs(1);

  const auto first = scenario.metrics().first_detection(victim);
  ASSERT_TRUE(first.has_value()) << "p=" << loss() << " seed=" << seed();
  EXPECT_FALSE(first->suspect_was_alive);
}

// Failure logs are monotone: knowledge only grows.
TEST_P(LossSeedSweep, FailureKnowledgeIsMonotone) {
  Scenario scenario(config());
  scenario.setup();
  scenario.run_epochs(1);
  std::vector<std::size_t> before;
  for (FdsAgent* agent : scenario.fds().agents()) {
    before.push_back(agent->log().size());
  }
  NodeId victim = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) victim = view->self();
  }
  scenario.network().crash(victim);
  scenario.run_epochs(3);
  std::size_t i = 0;
  for (FdsAgent* agent : scenario.fds().agents()) {
    EXPECT_GE(agent->log().size(), before[i++]);
  }
}

// Views never expect a *crashed* node the owner knows to be failed. (A
// falsely detected node that is still alive legitimately reappears: it
// re-subscribes unmarked and the CH re-admits it, feature F5.)
TEST_P(LossSeedSweep, ViewsNeverExpectKnownFailedNodes) {
  Scenario scenario(config());
  scenario.setup();
  scenario.run_epochs(1);
  std::vector<NodeId> victims;
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      victims.push_back(view->self());
      if (victims.size() == 3) break;
    }
  }
  for (NodeId v : victims) scenario.network().crash(v);
  scenario.run_epochs(3);

  std::vector<NodeId> known;
  for (FdsAgent* agent : scenario.fds().agents()) {
    if (!agent->view().affiliated()) continue;
    agent->log().known_failed(known);
    for (NodeId failed : known) {
      if (scenario.network().node(failed).alive()) continue;  // re-admitted
      EXPECT_FALSE(agent->view().cluster()->is_member(failed))
          << "agent " << agent->id() << " still expects " << failed;
    }
  }
}

// Radio energy is strictly consumed, never regained.
TEST_P(LossSeedSweep, EnergyIsMonotonicallyConsumed) {
  Scenario scenario(config());
  scenario.setup();
  scenario.run_epochs(1);
  std::vector<double> before;
  for (const Node* node : scenario.network().nodes()) {
    before.push_back(node->remaining_energy_uj());
  }
  scenario.run_epochs(2);
  std::size_t i = 0;
  for (const Node* node : scenario.network().nodes()) {
    EXPECT_LE(node->remaining_energy_uj(), before[i++]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LossSeedSweep,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.3, 0.5),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{42},
                                         std::uint64_t{1337})));

// Bit-level reproducibility: the same configuration replays identically.
TEST(Determinism, IdenticalSeedsProduceIdenticalTraces) {
  auto run_once = [] {
    ScenarioConfig config;
    config.width = 500.0;
    config.height = 350.0;
    config.node_count = 200;
    config.loss_p = 0.25;
    config.seed = 77;
    Scenario scenario(config);
    scenario.setup();
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
    std::ostringstream trace;
    for (const DetectionEvent& e : scenario.metrics().detections()) {
      trace << e.decider << ':' << e.suspect << ':' << e.epoch << ':'
            << e.when << ';';
    }
    trace << '|' << traffic_totals(scenario.network()).frames;
    return trace.str();
  };
  EXPECT_EQ(run_once(), run_once());
}

// One timetable, two schedules: a skew provider that returns zero for every
// node takes FdsService's per-agent path (one schedule per agent), no
// provider takes the shared path (one schedule for all agents). Both must
// produce the same run — detections, failure logs and traffic — through a
// crash and a recovery.
class ScheduleEquivalence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] std::string run(bool zero_skew_provider) const {
    ScenarioConfig config;
    config.width = 500.0;
    config.height = 350.0;
    config.node_count = 200;
    config.loss_p = 0.2;
    config.seed = GetParam();
    config.fds.recovery_enabled = true;
    Scenario scenario(config);
    scenario.setup();
    if (zero_skew_provider) {
      scenario.fds().set_skew_provider(
          [](NodeId, std::uint64_t) { return SimTime::zero(); });
    }
    scenario.run_epochs(1);
    NodeId victim = NodeId::invalid();
    for (MembershipView* view : scenario.views()) {
      if (view->role() == Role::kOrdinaryMember) {
        victim = view->self();
        break;
      }
    }
    scenario.network().crash(victim);
    scenario.run_epochs(2);
    scenario.network().recover(victim);
    scenario.run_epochs(2);
    std::ostringstream trace;
    for (const DetectionEvent& e : scenario.metrics().detections()) {
      trace << e.decider << ':' << e.suspect << ':' << e.epoch << ':'
            << e.when << ';';
    }
    std::vector<NodeId> known;
    for (FdsAgent* agent : scenario.fds().agents()) {
      trace << '|' << agent->id() << ':' << agent->current_epoch();
      agent->log().known_failed(known);
      for (NodeId f : known) trace << ',' << f;
    }
    const TrafficTotals traffic = traffic_totals(scenario.network());
    trace << '|' << traffic.frames << ':' << traffic.bytes;
    return trace.str();
  }
};

TEST_P(ScheduleEquivalence, ZeroSkewProviderMatchesTheSharedSchedule) {
  const std::string shared = run(false);
  EXPECT_NE(shared.find(';'), std::string::npos);  // the crash was detected
  EXPECT_EQ(run(true), shared);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleEquivalence,
                         ::testing::Values(std::uint64_t{3}, std::uint64_t{19},
                                           std::uint64_t{77},
                                           std::uint64_t{1234}));

// Pins the clock-skew study of `bench_figures robustness`: offsets at and
// past Thop push heartbeats into the wrong round, and the false-detection
// counts of that table must not move when the round schedule is refactored.
TEST(SkewStudy, FalseDetectionsAtAndPastThop) {
  auto false_detections = [](std::int64_t skew_ms) {
    ScenarioConfig config;
    config.width = 550.0;
    config.height = 400.0;
    config.node_count = 300;
    config.loss_p = 0.1;
    config.seed = 83;
    config.fds.max_clock_skew = SimTime::millis(skew_ms);
    Scenario scenario(config);
    scenario.setup();
    scenario.run_epochs(3);
    NodeId victim = NodeId::invalid();
    for (MembershipView* view : scenario.views()) {
      if (view->role() == Role::kOrdinaryMember) {
        victim = view->self();
        break;
      }
    }
    scenario.network().crash(victim);
    scenario.run_epochs(3);
    EXPECT_TRUE(scenario.metrics().first_detection(victim).has_value());
    return scenario.metrics().false_detections();
  };
  EXPECT_EQ(false_detections(100), 3u);
  EXPECT_EQ(false_detections(200), 57u);
}

TEST(Determinism, DifferentSeedsDiverge) {
  auto frames_for = [](std::uint64_t seed) {
    ScenarioConfig config;
    config.width = 500.0;
    config.height = 350.0;
    config.node_count = 200;
    config.loss_p = 0.25;
    config.seed = seed;
    Scenario scenario(config);
    scenario.setup();
    scenario.run_epochs(2);
    return traffic_totals(scenario.network()).frames;
  };
  EXPECT_NE(frames_for(1), frames_for(2));
}

}  // namespace
}  // namespace cfds
