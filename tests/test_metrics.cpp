// Tests for the metrics layer and the failure log.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "fds/failure_log.h"
#include "sim/scenario.h"

namespace cfds {
namespace {

TEST(FailureLog, RecordIsMonotoneAndKeepsEarliest) {
  FailureLog log;
  EXPECT_TRUE(log.record(NodeId{5}, {SimTime::seconds(1), 1, NodeId{0}}));
  EXPECT_FALSE(log.record(NodeId{5}, {SimTime::seconds(9), 9, NodeId{2}}));
  ASSERT_NE(log.entry(NodeId{5}), nullptr);
  EXPECT_EQ(log.entry(NodeId{5})->learned_at, SimTime::seconds(1));
  EXPECT_EQ(log.entry(NodeId{5})->reported_by, NodeId{0});
  EXPECT_EQ(log.size(), 1u);
}

TEST(FailureLog, KnownFailedIsSorted) {
  FailureLog log;
  log.record(NodeId{9}, {});
  log.record(NodeId{2}, {});
  log.record(NodeId{5}, {});
  std::vector<NodeId> known{NodeId{77}};  // overwritten, not appended to
  log.known_failed(known);
  EXPECT_EQ(known, (std::vector<NodeId>{NodeId{2}, NodeId{5}, NodeId{9}}));
  std::vector<std::uint32_t> plain;
  log.known_failed(plain);
  EXPECT_EQ(plain, (std::vector<std::uint32_t>{2, 5, 9}));
  EXPECT_TRUE(log.knows(NodeId{2}));
  EXPECT_FALSE(log.knows(NodeId{3}));
  EXPECT_EQ(log.entry(NodeId{3}), nullptr);
}

// Random record / bulk record / erase / retain / clear sequences against a
// std::map oracle that applies each operation one NID at a time — the
// semantics the flat log must reproduce. Bulk lists come in four shapes:
// strictly ascending, unsorted, sorted with duplicates, and any of them
// containing the caller's own NID, which is never recorded.
TEST(FailureLog, MatchesOrderedMapOracle) {
  using Oracle = std::map<NodeId, FailureLog::Entry>;
  const NodeId self{7};
  Rng rng(20250611);
  const auto nid = [&] { return NodeId{std::uint32_t(rng.below(40))}; };
  const auto random_list = [&] {
    std::vector<NodeId> list(rng.below(13));
    for (NodeId& n : list) n = nid();
    switch (rng.below(4)) {
      case 0:  // strictly ascending
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
        break;
      case 1:  // sorted with duplicates
        if (!list.empty()) list.push_back(list.front());
        std::sort(list.begin(), list.end());
        break;
      case 2:  // sorted, containing self
        list.push_back(self);
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
        break;
      default:  // unsorted as drawn
        break;
    }
    return list;
  };

  for (int trial = 0; trial < 200; ++trial) {
    FailureLog log;
    Oracle oracle;
    for (int step = 0; step < 60; ++step) {
      const FailureLog::Entry entry{SimTime::micros(trial * 1000 + step),
                                    std::uint64_t(step), nid()};
      switch (rng.below(10)) {
        case 0:
        case 1: {
          const NodeId n = nid();
          ASSERT_EQ(log.record(n, entry), oracle.emplace(n, entry).second);
          break;
        }
        case 2:
        case 3:
        case 4:
        case 5: {
          const std::vector<NodeId> list = random_list();
          std::vector<NodeId> learned{NodeId{99}};  // appended to, not reset
          log.record(list, entry, self, learned);
          std::vector<NodeId> expected{NodeId{99}};
          for (NodeId n : list) {
            if (n != self && oracle.emplace(n, entry).second) {
              expected.push_back(n);
            }
          }
          ASSERT_EQ(learned, expected);
          break;
        }
        case 6:
        case 7: {
          const NodeId n = nid();
          ASSERT_EQ(log.erase(n), oracle.erase(n) > 0);
          break;
        }
        case 8: {
          const std::vector<NodeId> list = random_list();
          log.retain(list);
          std::erase_if(oracle, [&](const auto& kv) {
            return std::find(list.begin(), list.end(), kv.first) ==
                   list.end();
          });
          break;
        }
        default:
          if (rng.below(4) == 0) {
            log.clear();
            oracle.clear();
          }
          break;
      }
      ASSERT_EQ(log.size(), oracle.size());
      std::vector<NodeId> listed;
      log.known_failed(listed);
      std::vector<NodeId> expected;
      for (const auto& [n, e] : oracle) expected.push_back(n);
      ASSERT_EQ(listed, expected);
      for (std::uint32_t v = 0; v < 40; ++v) {
        const NodeId n{v};
        const auto it = oracle.find(n);
        ASSERT_EQ(log.knows(n), it != oracle.end());
        const FailureLog::Entry* got = log.entry(n);
        ASSERT_EQ(got != nullptr, it != oracle.end());
        if (got != nullptr) {
          ASSERT_EQ(got->learned_at, it->second.learned_at);
          ASSERT_EQ(got->epoch, it->second.epoch);
          ASSERT_EQ(got->reported_by, it->second.reported_by);
        }
      }
    }
  }
}

TEST(Metrics, DetectionEventsCarryGroundTruth) {
  ScenarioConfig config;
  config.width = 500.0;
  config.height = 350.0;
  config.node_count = 250;
  config.loss_p = 0.0;
  config.seed = 3;
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
  scenario.run_epochs(2);

  ASSERT_FALSE(scenario.metrics().detections().empty());
  const auto first = scenario.metrics().first_detection(victim);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->suspect, victim);
  EXPECT_FALSE(first->suspect_was_alive);
  EXPECT_EQ(scenario.metrics().true_detections(), 1u);
  EXPECT_EQ(scenario.metrics().false_detections(), 0u);

  // Detection latency: within one heartbeat interval of the crash.
  EXPECT_LE(first->when - config.fds.heartbeat_interval,
            scenario.network().simulator().now());
}

TEST(Metrics, CrashLatencyIgnoresEarlierFalseDetections) {
  ScenarioConfig config;
  config.width = 400.0;
  config.height = 300.0;
  config.node_count = 120;
  config.loss_p = 0.0;
  config.seed = 3;
  // Falsely dropped members re-subscribe, so they can be crashed later.
  config.fds.recovery_enabled = true;
  Scenario scenario(config);
  scenario.setup();
  // A total-loss epoch: every CH hears no member and falsely detects them.
  scenario.network().channel().set_loss_override(1.0);
  scenario.run_epochs(1);
  scenario.network().channel().clear_loss_override();
  scenario.run_epochs(4);

  const NodeId victim = scenario.alive_ordinary_members().front();
  const auto false_detection = scenario.metrics().first_detection(victim);
  ASSERT_TRUE(false_detection.has_value());
  EXPECT_TRUE(false_detection->suspect_was_alive);

  const SimTime crash = scenario.network().simulator().now();
  scenario.network().crash(victim);
  scenario.run_epochs(2);
  // The earliest detection overall is still the false one...
  EXPECT_LT(scenario.metrics().first_detection(victim)->when, crash);
  // ...and the crash is measured to the first detection after it.
  const auto detection =
      scenario.metrics().first_detection_since(victim, crash);
  ASSERT_TRUE(detection.has_value());
  EXPECT_FALSE(detection->suspect_was_alive);
  EXPECT_GE((detection->when - crash).as_seconds(), 0.0);
}

TEST(Metrics, CoverageCountsOnlyEligibleObservers) {
  ScenarioConfig config;
  config.width = 400.0;
  config.height = 300.0;
  config.node_count = 150;
  config.loss_p = 0.0;
  config.seed = 3;
  Scenario scenario(config);
  scenario.setup();
  // Nobody crashed yet: coverage of an unknown failure is 0.
  EXPECT_EQ(knowledge_coverage(scenario.fds(), scenario.network(), NodeId{0}),
            0.0);
}

TEST(Metrics, TrafficTotalsAggregate) {
  ScenarioConfig config;
  config.width = 400.0;
  config.height = 300.0;
  config.node_count = 100;
  config.loss_p = 0.0;
  config.seed = 3;
  Scenario scenario(config);
  scenario.setup();
  const auto before = traffic_totals(scenario.network());
  scenario.run_epochs(1);
  const auto after = traffic_totals(scenario.network());
  // At least one heartbeat, one digest and one update per affiliated node.
  EXPECT_GT(after.frames, before.frames + 2 * 100);
  EXPECT_GT(after.bytes, before.bytes);
}

TEST(Metrics, ClearResetsEvents) {
  MetricsCollector collector;
  EXPECT_TRUE(collector.detections().empty());
  collector.clear();
  EXPECT_TRUE(collector.detections().empty());
  EXPECT_EQ(collector.true_detections(), 0u);
}

}  // namespace
}  // namespace cfds
