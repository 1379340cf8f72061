// Behavioural tests for the FDS agent machinery on a controlled cluster:
// round timing, digests, updates, DCH takeover, peer forwarding, admission.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cluster/directory.h"
#include "fds/agent.h"
#include "net/topology.h"

namespace cfds {
namespace {

/// A hand-built cluster: CH 0 at the origin, members on a small ring, one
/// far member reachable by the CH but not by everyone.
class FdsFixture : public ::testing::Test {
 protected:
  static constexpr int kN = 8;

  static FdsConfig default_config() {
    FdsConfig config;
    config.heartbeat_interval = SimTime::millis(800);
    return config;
  }

  FdsFixture() : FdsFixture(default_config()) {}

  explicit FdsFixture(double loss_p)
      : FdsFixture(default_config(),
                   loss_p == 0.0
                       ? std::unique_ptr<LossModel>(
                             std::make_unique<PerfectLinks>())
                       : std::unique_ptr<LossModel>(
                             std::make_unique<BernoulliLoss>(loss_p))) {}

  explicit FdsFixture(FdsConfig config)
      : FdsFixture(std::move(config), std::make_unique<PerfectLinks>()) {}

  FdsFixture(FdsConfig config, std::unique_ptr<LossModel> loss) {
    NetworkConfig net_config;
    net_config.seed = 13;
    network_ = std::make_unique<Network>(net_config, std::move(loss));
    network_->add_node({0.0, 0.0});  // CH
    for (int i = 1; i < kN; ++i) {
      const double angle = 2.0 * M_PI * double(i) / double(kN - 1);
      network_->add_node({60.0 * std::cos(angle), 60.0 * std::sin(angle)});
    }
    for (int i = 0; i < kN; ++i) {
      views_.push_back(std::make_unique<MembershipView>(
          NodeId{std::uint32_t(i)}));
    }
    fds_ = std::make_unique<FdsService>(*network_, view_ptrs(), config);
    ClusterDirectory::single_cluster(kN).install(*network_, view_ptrs_);
  }

  std::vector<MembershipView*> view_ptrs() {
    view_ptrs_.clear();
    for (auto& v : views_) view_ptrs_.push_back(v.get());
    return view_ptrs_;
  }

  void run_epoch(std::uint64_t epoch) {
    const SimTime start = network_->simulator().now();
    fds_->schedule_epoch(epoch, start);
    network_->simulator().run_until(start + SimTime::millis(800));
  }

  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<MembershipView>> views_;
  std::vector<MembershipView*> view_ptrs_;
  std::unique_ptr<FdsService> fds_;
};

TEST_F(FdsFixture, QuietEpochProducesEmptyUpdateEverywhereReceived) {
  int updates_applied = 0;
  fds_->hooks().on_update_applied = [&](NodeId, const HealthUpdatePayload& u) {
    EXPECT_TRUE(u.newly_failed.empty());
    EXPECT_FALSE(u.takeover);
    ++updates_applied;
  };
  run_epoch(0);
  EXPECT_EQ(updates_applied, kN - 1);  // every member, not the CH itself
  for (FdsAgent* agent : fds_->agents()) {
    EXPECT_TRUE(agent->got_scheduled_update()) << agent->id();
  }
}

TEST_F(FdsFixture, CrashedMemberDetectedInOneExecution) {
  network_->crash(NodeId{5});
  std::vector<NodeId> detected;
  fds_->hooks().on_detection = [&](NodeId decider, std::uint64_t,
                                   const std::vector<NodeId>& failed,
                                   bool by_deputy) {
    EXPECT_EQ(decider, NodeId{0});
    EXPECT_FALSE(by_deputy);
    detected = failed;
  };
  run_epoch(0);
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(detected[0], NodeId{5});
  // Every surviving member learned and pruned its view.
  for (FdsAgent* agent : fds_->agents()) {
    if (agent->id() == NodeId{5}) continue;
    EXPECT_TRUE(agent->log().knows(NodeId{5}));
    EXPECT_FALSE(agent->view().cluster()->is_member(NodeId{5}));
  }
}

TEST_F(FdsFixture, DetectedNodeIsNotReDetected) {
  network_->crash(NodeId{5});
  int detections = 0;
  fds_->hooks().on_detection = [&](NodeId, std::uint64_t,
                                   const std::vector<NodeId>&,
                                   bool) { ++detections; };
  run_epoch(0);
  run_epoch(1);
  run_epoch(2);
  EXPECT_EQ(detections, 1);  // removed from the expected set after epoch 0
}

TEST_F(FdsFixture, ClusterheadCrashYieldsTakeoverByPrimaryDeputy) {
  network_->crash(NodeId{0});
  NodeId takeover_by = NodeId::invalid();
  fds_->hooks().on_takeover = [&](NodeId deputy, NodeId old_ch,
                                  std::uint64_t) {
    takeover_by = deputy;
    EXPECT_EQ(old_ch, NodeId{0});
  };
  run_epoch(0);
  EXPECT_EQ(takeover_by, NodeId{1});  // highest-ranked DCH
  for (FdsAgent* agent : fds_->agents()) {
    if (agent->id() == NodeId{0}) continue;
    EXPECT_EQ(agent->view().cluster()->clusterhead, NodeId{1}) << agent->id();
    EXPECT_TRUE(agent->log().knows(NodeId{0}));
  }
  // The new CH runs subsequent executions: crash another member.
  network_->crash(NodeId{6});
  bool detected_by_new_ch = false;
  fds_->hooks().on_detection = [&](NodeId decider, std::uint64_t,
                                   const std::vector<NodeId>& failed, bool) {
    if (decider == NodeId{1} && failed == std::vector<NodeId>{NodeId{6}}) {
      detected_by_new_ch = true;
    }
  };
  run_epoch(1);
  EXPECT_TRUE(detected_by_new_ch);
}

TEST_F(FdsFixture, SecondDeputyTakesOverWhenChAndFirstDeputyDie) {
  // Feature F2's ranked redundancy: CH (0) and the primary deputy (1) die
  // in the same interval; the rank-2 deputy (2) must still take over.
  network_->crash(NodeId{0});
  network_->crash(NodeId{1});
  NodeId takeover_by = NodeId::invalid();
  fds_->hooks().on_takeover = [&](NodeId deputy, NodeId, std::uint64_t) {
    takeover_by = deputy;
  };
  run_epoch(0);
  EXPECT_EQ(takeover_by, NodeId{2});
  for (FdsAgent* agent : fds_->agents()) {
    if (agent->id() == NodeId{0} || agent->id() == NodeId{1}) continue;
    EXPECT_EQ(agent->view().cluster()->clusterhead, NodeId{2}) << agent->id();
    EXPECT_TRUE(agent->log().knows(NodeId{0}));
  }
  // The dead primary deputy is detected by the new CH next epoch.
  run_epoch(1);
  FdsAgent& new_ch = fds_->agent_for(NodeId{2});
  EXPECT_TRUE(new_ch.log().knows(NodeId{1}));
}

TEST_F(FdsFixture, LowerDeputyStandsDownWhenPrimaryActs) {
  network_->crash(NodeId{0});
  std::vector<NodeId> takeovers;
  fds_->hooks().on_takeover = [&](NodeId deputy, NodeId, std::uint64_t) {
    takeovers.push_back(deputy);
  };
  run_epoch(0);
  // Exactly one takeover, by the primary; rank 2 heard the announcement.
  ASSERT_EQ(takeovers.size(), 1u);
  EXPECT_EQ(takeovers[0], NodeId{1});
}

TEST(FdsAdmission, UnmarkedHeartbeatTriggersAdmission) {
  // A replenishment node lands inside a cluster, unmarked: its heartbeat is
  // a membership subscription (feature F5) and the CH admits it.
  NetworkConfig net_config;
  net_config.seed = 13;
  Network network(net_config, std::make_unique<PerfectLinks>());
  network.add_node({0.0, 0.0});  // CH
  for (int i = 1; i < 8; ++i) {
    const double angle = 2.0 * M_PI * double(i) / 7.0;
    network.add_node({60.0 * std::cos(angle), 60.0 * std::sin(angle)});
  }
  Node& newcomer = network.add_node({30.0, 10.0});  // NID 8, unmarked

  std::vector<std::unique_ptr<MembershipView>> views;
  std::vector<MembershipView*> ptrs;
  for (std::uint32_t i = 0; i < 9; ++i) {
    views.push_back(std::make_unique<MembershipView>(NodeId{i}));
    ptrs.push_back(views.back().get());
  }
  FdsConfig config;
  config.heartbeat_interval = SimTime::millis(800);
  FdsService fds(network, ptrs, config);
  // The installed cluster covers only nodes 0..7.
  ClusterDirectory::single_cluster(8).install(network, ptrs);

  EXPECT_FALSE(newcomer.marked());
  fds.schedule_epoch(0, SimTime::zero());
  network.simulator().run_until(SimTime::millis(800));

  EXPECT_TRUE(newcomer.marked());
  FdsAgent& agent = fds.agent_for(newcomer.id());
  ASSERT_TRUE(agent.view().affiliated());
  EXPECT_EQ(agent.view().cluster()->clusterhead, NodeId{0});
  EXPECT_TRUE(views[0]->cluster()->is_member(newcomer.id()));
}

TEST_F(FdsFixture, WaitingPeriodsAreUniqueAndBounded) {
  const SimTime t_hop = SimTime::millis(100);
  std::set<std::int64_t> seen;
  for (std::uint32_t nid = 0; nid < 500; ++nid) {
    const SimTime w = peer_waiting_period(NodeId{nid}, 1.0, t_hop);
    EXPECT_GT(w.as_micros(), 0);
    EXPECT_LT(w, t_hop);
    seen.insert(w.as_micros());
  }
  // NID-derived spreading: collisions only via the microsecond rounding of
  // the timer (birthday bound ~1-2 for 500 draws over ~92k slots).
  EXPECT_GE(seen.size(), 497u);
}

TEST_F(FdsFixture, WaitingPeriodStretchesWhenEnergyDepleted) {
  const SimTime t_hop = SimTime::millis(100);
  const NodeId node{42};
  EXPECT_LT(peer_waiting_period(node, 1.0, t_hop),
            peer_waiting_period(node, 0.2, t_hop));
}

// Peer forwarding: block the direct CH->member delivery for one node by
// using a loss model that targets it, then verify the request/forward/ack
// machinery recovers the update.
class TargetedLoss final : public LossModel {
 public:
  explicit TargetedLoss(NodeId victim) : victim_(victim) {}
  bool lost(NodeId sender, Vec2, NodeId receiver, Vec2, Rng&) override {
    // Drop exactly the CH's frames to the victim (heartbeats, digests and
    // the R-3 update) — peers must fill the gap.
    return sender == NodeId{0} && receiver == victim_;
  }

 private:
  NodeId victim_;
};

TEST(FdsPeerForwarding, MissedUpdateRecoveredViaRequest) {
  NetworkConfig net_config;
  net_config.seed = 31;
  const NodeId victim{4};
  Network network(net_config, std::make_unique<TargetedLoss>(victim));
  network.add_node({0.0, 0.0});
  for (int i = 1; i < 8; ++i) {
    const double angle = 2.0 * M_PI * double(i) / 7.0;
    network.add_node({50.0 * std::cos(angle), 50.0 * std::sin(angle)});
  }
  std::vector<std::unique_ptr<MembershipView>> views;
  std::vector<MembershipView*> ptrs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    views.push_back(std::make_unique<MembershipView>(NodeId{i}));
    ptrs.push_back(views.back().get());
  }
  FdsConfig config;
  config.heartbeat_interval = SimTime::millis(800);
  FdsService fds(network, ptrs, config);
  ClusterDirectory::single_cluster(8).install(network, ptrs);

  fds.schedule_epoch(0, SimTime::zero());
  network.simulator().run_until(SimTime::millis(800));
  EXPECT_TRUE(fds.agent_for(victim).got_scheduled_update());

  // And with peer forwarding disabled, the victim stays dark.
  FdsConfig no_pf = config;
  no_pf.peer_forwarding = false;
  Network network2(net_config, std::make_unique<TargetedLoss>(victim));
  network2.add_node({0.0, 0.0});
  for (int i = 1; i < 8; ++i) {
    const double angle = 2.0 * M_PI * double(i) / 7.0;
    network2.add_node({50.0 * std::cos(angle), 50.0 * std::sin(angle)});
  }
  std::vector<std::unique_ptr<MembershipView>> views2;
  std::vector<MembershipView*> ptrs2;
  for (std::uint32_t i = 0; i < 8; ++i) {
    views2.push_back(std::make_unique<MembershipView>(NodeId{i}));
    ptrs2.push_back(views2.back().get());
  }
  FdsService fds2(network2, ptrs2, no_pf);
  ClusterDirectory::single_cluster(8).install(network2, ptrs2);
  fds2.schedule_epoch(0, SimTime::zero());
  network2.simulator().run_until(SimTime::millis(800));
  EXPECT_FALSE(fds2.agent_for(victim).got_scheduled_update());
}

// ---------------------------------------------------------------------------
// Epoch-skew tolerance edges (FdsConfig::tolerate_epoch_skew).

class SkewTolerantFixture : public FdsFixture {
 public:
  static FdsConfig config() {
    FdsConfig c = default_config();
    c.tolerate_epoch_skew = true;
    return c;
  }

 protected:
  SkewTolerantFixture() : FdsFixture(config()) {}
};

TEST_F(SkewTolerantFixture, EvidenceAgesOutInsteadOfVanishingAtTheBoundary) {
  // Under the soft boundary, epoch-0 signs of life stay valid until they age
  // past phi + Thop. A node that crashes BETWEEN epochs is therefore cleared
  // by its own stale evidence for one extra execution and declared in the
  // second — the price of not failing fast neighbours every epoch.
  run_epoch(0);
  network_->crash(NodeId{5});
  std::vector<std::pair<std::uint64_t, std::vector<NodeId>>> detections;
  fds_->hooks().on_detection = [&](NodeId, std::uint64_t epoch,
                                   const std::vector<NodeId>& failed, bool) {
    detections.emplace_back(epoch, failed);
  };
  run_epoch(1);
  EXPECT_TRUE(detections.empty());  // stale evidence still within the window
  run_epoch(2);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].first, 2u);
  EXPECT_EQ(detections[0].second, std::vector<NodeId>{NodeId{5}});
}

TEST(FdsSkew, SubscriptionHeardAfterR3CarriesIntoTheNextExecution) {
  // A newcomer whose clock runs 3*Thop ahead delivers its subscription
  // heartbeat after the CH's R-3 has already passed. A hard boundary wipes
  // the pending subscription every epoch and the newcomer is never admitted;
  // the soft boundary carries it into the next R-3.
  for (const bool tolerate : {false, true}) {
    NetworkConfig net_config;
    net_config.seed = 13;
    Network network(net_config, std::make_unique<PerfectLinks>());
    network.add_node({0.0, 0.0});
    for (int i = 1; i < 8; ++i) {
      const double angle = 2.0 * M_PI * double(i) / 7.0;
      network.add_node({60.0 * std::cos(angle), 60.0 * std::sin(angle)});
    }
    Node& newcomer = network.add_node({30.0, 10.0});  // NID 8, unmarked
    std::vector<std::unique_ptr<MembershipView>> views;
    std::vector<MembershipView*> ptrs;
    for (std::uint32_t i = 0; i < 9; ++i) {
      views.push_back(std::make_unique<MembershipView>(NodeId{i}));
      ptrs.push_back(views.back().get());
    }
    FdsConfig config;
    config.heartbeat_interval = SimTime::millis(800);
    config.tolerate_epoch_skew = tolerate;
    FdsService fds(network, ptrs, config);
    ClusterDirectory::single_cluster(8).install(network, ptrs);
    fds.set_skew_provider([&](NodeId id, std::uint64_t) {
      return id == newcomer.id() ? SimTime::millis(300) : SimTime::zero();
    });
    for (std::uint64_t e = 0; e < 3; ++e) {
      fds.schedule_epoch(e, SimTime::millis(std::int64_t(800 * e)));
    }
    network.simulator().run_until(SimTime::millis(2400));
    EXPECT_EQ(newcomer.marked(), tolerate) << "tolerate=" << tolerate;
    EXPECT_EQ(fds.agent_for(newcomer.id()).view().affiliated(), tolerate);
  }
}

/// Drops every frame SENT by the victim while muted; reception is unaffected.
class MutedVictimsLoss final : public LossModel {
 public:
  explicit MutedVictimsLoss(std::vector<NodeId> victims)
      : victims_(std::move(victims)) {}
  bool lost(NodeId sender, Vec2, NodeId, Vec2, Rng&) override {
    return muted && std::find(victims_.begin(), victims_.end(), sender) !=
                        victims_.end();
  }
  bool muted = true;

 private:
  std::vector<NodeId> victims_;
};

class FreshSelfNewsFixture : public FdsFixture {
 protected:
  FreshSelfNewsFixture()
      : FdsFixture(SkewTolerantFixture::config(),
                   std::make_unique<MutedVictimsLoss>(
                       std::vector<NodeId>{NodeId{5}})) {}
  MutedVictimsLoss& gate() {
    return static_cast<MutedVictimsLoss&>(network_->loss_model());
  }
};

TEST_F(FreshSelfNewsFixture, FreshSelfNewsForcesFullStepDownThenResubscribe) {
  // The victim's radio is mute for one epoch: the CH declares it failed and
  // the victim HEARS that fresh news about itself. Under tolerate_epoch_skew
  // it must step down fully (view dropped, unmarked) — the author already
  // dropped it from the roster, so clinging to the stale view would discard
  // any re-admission from another head as foreign.
  run_epoch(0);
  FdsAgent& victim = fds_->agent_for(NodeId{5});
  EXPECT_FALSE(network_->node(NodeId{5}).marked());
  EXPECT_FALSE(victim.view().affiliated());
  EXPECT_GE(victim.reverts()[FdsAgent::kRevertFreshSelfNews], 1u);
  // Radio heals: the next unmarked heartbeat is a subscription (F5) and the
  // victim rejoins the same cluster.
  gate().muted = false;
  run_epoch(1);
  EXPECT_TRUE(network_->node(NodeId{5}).marked());
  ASSERT_TRUE(victim.view().affiliated());
  EXPECT_EQ(victim.view().cluster()->clusterhead, NodeId{0});
  EXPECT_TRUE(
      fds_->agent_for(NodeId{0}).view().cluster()->is_member(NodeId{5}));
}

class FalselyDetectedDeputyFixture : public FdsFixture {
 protected:
  FalselyDetectedDeputyFixture()
      : FdsFixture(default_config(), std::make_unique<MutedVictimsLoss>(
                                         std::vector<NodeId>{NodeId{1}})) {}
  MutedVictimsLoss& gate() {
    return static_cast<MutedVictimsLoss&>(network_->loss_model());
  }
};

TEST_F(FalselyDetectedDeputyFixture, UnmarkedDeputyDoesNotTakeOver) {
  // The primary deputy is mute for one epoch: the CH declares it failed and
  // the deputy hears that fresh news about itself, so it is unmarked but
  // keeps its view (no tolerate_epoch_skew). If the CH then goes silent,
  // the deputy must not take over: an unmarked acting head would send
  // unmarked heartbeats forever.
  run_epoch(0);
  EXPECT_FALSE(network_->node(NodeId{1}).marked());
  ASSERT_TRUE(fds_->agent_for(NodeId{1}).view().affiliated());
  std::vector<NodeId> takeovers;
  fds_->hooks().on_takeover = [&](NodeId deputy, NodeId, std::uint64_t) {
    takeovers.push_back(deputy);
  };
  gate().muted = false;
  network_->crash(NodeId{0});
  run_epoch(1);
  EXPECT_EQ(std::count(takeovers.begin(), takeovers.end(), NodeId{1}), 0);
  EXPECT_FALSE(fds_->agent_for(NodeId{1}).view().is_clusterhead());
}

// ---------------------------------------------------------------------------
// Adaptive detection (FdsConfig::adaptive_enabled).

class AdaptiveFixture : public FdsFixture {
 public:
  static FdsConfig config() {
    FdsConfig c = default_config();
    c.adaptive_enabled = true;
    return c;
  }

 protected:
  AdaptiveFixture() : FdsFixture(config()) {}
};

TEST_F(AdaptiveFixture, CleanLinkCrashKeepsStaticLatency) {
  // Over clean links one miss scores surprise(kMinLossPm) = 2000, past the
  // default 1500 threshold: the accrual rule must not be slower than the
  // static rule where the static rule is right.
  network_->crash(NodeId{5});
  std::vector<NodeId> detected;
  std::uint64_t detected_epoch = 99;
  fds_->hooks().on_detection = [&](NodeId decider, std::uint64_t epoch,
                                   const std::vector<NodeId>& failed, bool) {
    EXPECT_EQ(decider, NodeId{0});
    detected = failed;
    detected_epoch = epoch;
  };
  run_epoch(0);
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(detected[0], NodeId{5});
  EXPECT_EQ(detected_epoch, 0u);
}

class AdaptiveTuneFixture : public FdsFixture {
 protected:
  AdaptiveTuneFixture()
      : FdsFixture(AdaptiveFixture::config(),
                   std::make_unique<MutedVictimsLoss>(std::vector<NodeId>{
                       NodeId{4}, NodeId{5}, NodeId{6}})) {
    gate().muted = false;  // start clean; tests flip it on
  }
  MutedVictimsLoss& gate() {
    return static_cast<MutedVictimsLoss&>(network_->loss_model());
  }
};

TEST_F(AdaptiveTuneFixture, TuneLevelRampsUpAndDownWithoutFalsePositives) {
  // Three of seven members go mute for three epochs — a cluster-wide
  // interference pattern. The congestion gate must excuse them (no
  // declarations), the CH's announced tune level must ramp up by at most one
  // per epoch while the burst lasts and back down after it clears, and
  // members must track the announcement.
  int detections = 0;
  fds_->hooks().on_detection = [&](NodeId, std::uint64_t,
                                   const std::vector<NodeId>&,
                                   bool) { ++detections; };
  std::vector<int> announced;
  fds_->hooks().on_update_applied = [&](NodeId to,
                                        const HealthUpdatePayload& u) {
    if (to == NodeId{3}) announced.push_back(int(u.tune_level));
  };
  run_epoch(0);  // clean: level 0
  gate().muted = true;
  for (std::uint64_t e = 1; e <= 3; ++e) run_epoch(e);
  gate().muted = false;
  for (std::uint64_t e = 4; e <= 9; ++e) run_epoch(e);

  EXPECT_EQ(detections, 0);  // nobody was ever declared failed
  ASSERT_GE(announced.size(), 8u);
  EXPECT_EQ(announced.front(), 0);
  for (std::size_t i = 1; i < announced.size(); ++i) {
    EXPECT_LE(std::abs(announced[i] - announced[i - 1]), 1)
        << "ramp jumped at update " << i;
  }
  EXPECT_GE(*std::max_element(announced.begin(), announced.end()), 2);
  EXPECT_LT(announced.back(),
            *std::max_element(announced.begin(), announced.end()));
  // Ramp rules: a member and its CH never disagree by more than one level.
  EXPECT_LE(std::abs(int(fds_->agent_for(NodeId{3}).tune_level()) -
                     int(fds_->agent_for(NodeId{0}).tune_level())),
            1);
  // The muted members were never shed: still marked, still on the roster.
  for (std::uint32_t nid : {4u, 5u, 6u}) {
    EXPECT_TRUE(network_->node(NodeId{nid}).marked()) << nid;
    EXPECT_TRUE(
        fds_->agent_for(NodeId{0}).view().cluster()->is_member(NodeId{nid}));
  }
}

// ---------------------------------------------------------------------------
// Epoch bookkeeping across a crash: a node recovering mid-execution must
// stamp the execution it rejoined, on the shared schedule (zero skew) and on
// the per-agent one (skewed clocks) alike.

class RecoveryEpochFixture : public FdsFixture,
                             public ::testing::WithParamInterface<int> {
 protected:
  static FdsConfig config(int skew_ms) {
    FdsConfig c = default_config();
    c.recovery_enabled = true;
    c.max_clock_skew = SimTime::millis(skew_ms);
    return c;
  }
  RecoveryEpochFixture() : FdsFixture(config(GetParam())) {}

  /// Runs execution `epoch`, which starts at epoch * phi, to its end.
  void run_epoch_at(std::uint64_t epoch) {
    const SimTime start = std::int64_t(epoch) * kPhi;
    fds_->schedule_epoch(epoch, start);
    network_->simulator().run_until(start + kPhi);
  }

  static constexpr SimTime kPhi = SimTime::millis(800);
};

TEST_P(RecoveryEpochFixture, RecoveredMemberStampsTheExecutionItRejoined) {
  const NodeId victim{5};
  const SimTime t_hop = network_->channel().config().t_hop;
  run_epoch_at(0);
  network_->schedule_crash(victim, kPhi + t_hop);  // dies inside epoch 1
  run_epoch_at(1);
  run_epoch_at(2);
  // 1.5 Thop into epoch 3: after every agent's epoch-3 begin_epoch, since
  // the skew stays below 50 ms.
  const SimTime recover_at =
      3 * kPhi + SimTime::micros(t_hop.as_micros() * 3 / 2);
  network_->schedule_recover(victim, recover_at);
  fds_->schedule_epoch(3, 3 * kPhi);
  network_->simulator().run_until(recover_at);
  FdsAgent& agent = fds_->agent_for(victim);
  ASSERT_TRUE(network_->node(victim).alive());
  EXPECT_EQ(agent.current_epoch(), 3u);
  const std::uint64_t unmarked_before = agent.unmarked_heartbeats_sent();
  run_epoch_at(4);  // also finishes epoch 3
  EXPECT_EQ(agent.unmarked_heartbeats_sent(), unmarked_before + 1);
  EXPECT_EQ(agent.last_unmarked_sent_epoch(), 4u);
}

INSTANTIATE_TEST_SUITE_P(SharedAndSkewedSchedules, RecoveryEpochFixture,
                         ::testing::Values(0, 50));

// ---------------------------------------------------------------------------
// Checkpointed CH/DCH recovery (FdsConfig::checkpoint_enabled).

class CheckpointFixture : public FdsFixture {
 protected:
  static FdsConfig config() {
    FdsConfig c = default_config();
    c.recovery_enabled = true;
    c.checkpoint_enabled = true;
    c.checkpoint_interval_epochs = 2;
    return c;
  }
  CheckpointFixture() : FdsFixture(config()) {}
};

TEST_F(CheckpointFixture, CheckpointRetainedByHeadAndDeputiesOnly) {
  run_epoch(0);  // epoch 0 is on the interval: checkpoint broadcast at R-3
  for (FdsAgent* agent : fds_->agents()) {
    const bool holder = agent->id() == NodeId{0} ||
                        agent->id() == NodeId{1} || agent->id() == NodeId{2};
    EXPECT_EQ(agent->stable_checkpoint() != nullptr, holder) << agent->id();
  }
  const auto& cp = fds_->agent_for(NodeId{1}).stable_checkpoint();
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->clusterhead, NodeId{0});
  EXPECT_EQ(cp->members.size(), std::size_t{kN - 1});
  EXPECT_EQ(cp->deputies, (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
  const std::uint64_t first_seq = cp->seq;
  run_epoch(1);  // off the interval: no new checkpoint
  EXPECT_EQ(fds_->agent_for(NodeId{2}).stable_checkpoint()->seq, first_seq);
  run_epoch(2);  // on the interval again: receivers keep the larger seq
  EXPECT_GT(fds_->agent_for(NodeId{2}).stable_checkpoint()->seq, first_seq);
}

TEST_F(CheckpointFixture, RecoveredClusterheadRestoresAndReclaimsItsCluster) {
  run_epoch(0);  // checkpoint lands on 0, 1, 2
  network_->crash(NodeId{0});
  run_epoch(1);  // primary deputy takes over
  EXPECT_TRUE(fds_->agent_for(NodeId{1}).view().is_clusterhead());
  network_->recover(NodeId{0});
  FdsAgent& old_ch = fds_->agent_for(NodeId{0});
  // Warm restart from stable storage: CH role, roster and deputies are back
  // before a single frame is exchanged.
  EXPECT_TRUE(old_ch.restored_from_checkpoint());
  EXPECT_TRUE(network_->node(NodeId{0}).marked());
  ASSERT_TRUE(old_ch.view().affiliated());
  EXPECT_TRUE(old_ch.view().is_clusterhead());
  EXPECT_TRUE(old_ch.view().cluster()->is_member(NodeId{5}));
  // Reconciliation: lowest-NID head arbitration makes the interim head (1)
  // stand down; its members age out, re-subscribe, and the cluster converges
  // on the restored head with no lingering rivals.
  for (std::uint64_t e = 2; e <= 11; ++e) run_epoch(e);
  int heads = 0;
  for (FdsAgent* agent : fds_->agents()) {
    if (agent->view().is_clusterhead()) ++heads;
  }
  EXPECT_EQ(heads, 1);
  for (FdsAgent* agent : fds_->agents()) {
    ASSERT_TRUE(agent->view().affiliated()) << agent->id();
    EXPECT_EQ(agent->view().cluster()->clusterhead, NodeId{0}) << agent->id();
  }
  EXPECT_GE(fds_->agent_for(NodeId{1}).reverts()[FdsAgent::kRevertRivalHead],
            1u);
}

TEST_F(CheckpointFixture, RecoveredDeputyRestoresAndIsReconciled) {
  run_epoch(0);  // deputies 1 and 2 retain the checkpoint
  network_->crash(NodeId{2});
  run_epoch(1);  // CH detects the dead deputy and drops it
  EXPECT_TRUE(fds_->agent_for(NodeId{0}).log().knows(NodeId{2}));
  network_->recover(NodeId{2});
  FdsAgent& deputy = fds_->agent_for(NodeId{2});
  EXPECT_TRUE(deputy.restored_from_checkpoint());
  EXPECT_TRUE(network_->node(NodeId{2}).marked());
  ASSERT_TRUE(deputy.view().affiliated());
  // The live cluster has moved on (the roster no longer lists 2): the
  // recovery rules step the deputy down and its subscription re-admits it.
  for (std::uint64_t e = 2; e <= 6; ++e) run_epoch(e);
  EXPECT_TRUE(network_->node(NodeId{2}).marked());
  ASSERT_TRUE(deputy.view().affiliated());
  EXPECT_EQ(deputy.view().cluster()->clusterhead, NodeId{0});
  EXPECT_TRUE(
      fds_->agent_for(NodeId{0}).view().cluster()->is_member(NodeId{2}));
  const auto reverts = deputy.reverts();
  EXPECT_GE(reverts[FdsAgent::kRevertStaleSelfNews] +
                reverts[FdsAgent::kRevertRosterDropped],
            1u);
}

// ---------------------------------------------------------------------------
// Step-down paths, one per revert cause, with adaptive detection on. Each
// test first ramps the cluster's announced tune level up (three members go
// mute for three epochs — congestion the CH excuses and announces), so the
// step-down visibly resets it, then pins the exact post-state: view, marked
// flag, tune level, scheduled-update flag, revert counts and how often
// on_update_applied fired for the victim.

/// Mutes senders and deafens receivers on demand.
class GateLoss final : public LossModel {
 public:
  bool lost(NodeId sender, Vec2, NodeId receiver, Vec2, Rng&) override {
    return std::find(muted.begin(), muted.end(), sender) != muted.end() ||
           std::find(deaf.begin(), deaf.end(), receiver) != deaf.end();
  }
  std::vector<NodeId> muted;
  std::vector<NodeId> deaf;
};

class StepDownFixture : public FdsFixture {
 protected:
  static constexpr NodeId kVictim{3};

  static FdsConfig config(bool skew) {
    FdsConfig c = AdaptiveFixture::config();
    c.recovery_enabled = true;
    c.tolerate_epoch_skew = skew;
    return c;
  }
  explicit StepDownFixture(bool skew = false)
      : FdsFixture(config(skew), std::make_unique<GateLoss>()) {
    fds_->hooks().on_update_applied = [this](NodeId to,
                                             const HealthUpdatePayload&) {
      if (to == kVictim) ++applied_;
    };
  }
  GateLoss& gate() { return static_cast<GateLoss&>(network_->loss_model()); }
  FdsAgent& victim() { return fds_->agent_for(kVictim); }

  /// Epochs 0-3: members 4, 5 and 6 are mute in epochs 1-3. Leaves the next
  /// epoch to run in next_epoch_ and the victim's revert counts in before_.
  void warm_up() {
    run_epoch(0);
    gate().muted = {NodeId{4}, NodeId{5}, NodeId{6}};
    for (std::uint64_t e = 1; e <= 3; ++e) run_epoch(e);
    gate().muted.clear();
    next_epoch_ = 4;
    before_ = victim().reverts();
    applied_ = 0;
  }
  void run_next() { run_epoch(next_epoch_++); }

  /// The victim's revert counts gained since warm_up, by cause.
  std::array<std::uint64_t, 5> reverts_delta() {
    std::array<std::uint64_t, 5> delta{};
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] = victim().reverts()[i] - before_[i];
    }
    return delta;
  }
  /// A delta of exactly one revert, for `cause`.
  static std::array<std::uint64_t, 5> one(FdsAgent::RevertCause cause) {
    std::array<std::uint64_t, 5> delta{};
    delta[cause] = 1;
    return delta;
  }
  void expect_stepped_down() {
    EXPECT_FALSE(victim().view().affiliated());
    EXPECT_FALSE(network_->node(kVictim).marked());
    EXPECT_EQ(victim().tune_level(), 0);
    EXPECT_FALSE(victim().got_scheduled_update());
  }

  std::uint64_t next_epoch_ = 0;
  std::array<std::uint64_t, 5> before_{};
  int applied_ = 0;
};

TEST_F(StepDownFixture, RivalHeadStepsDownTheHigherNid) {
  warm_up();
  EXPECT_EQ(victim().tune_level(), 3);
  // The victim believes it heads the same cluster: the real head's (lower
  // NID) R-3 update wins the arbitration.
  views_[kVictim.value()]->apply_takeover(kVictim);
  run_next();
  expect_stepped_down();
  EXPECT_EQ(reverts_delta(), one(FdsAgent::kRevertRivalHead));
  EXPECT_EQ(applied_, 1);
  EXPECT_EQ(victim().log().size(), 0u);  // the loser also drops its log
}

class SkewStepDownFixture : public StepDownFixture {
 protected:
  SkewStepDownFixture() : StepDownFixture(/*skew=*/true) {}
};

TEST_F(SkewStepDownFixture, FreshSelfNewsStepsDownFully) {
  warm_up();
  EXPECT_EQ(victim().tune_level(), 2);
  // The victim goes mute until the head declares it; it hears that fresh
  // news about itself and, under tolerate_epoch_skew, drops its view.
  gate().muted = {kVictim};
  while (victim().view().affiliated() && next_epoch_ < 12) run_next();
  EXPECT_EQ(next_epoch_, 6u);  // declared in epoch 5
  expect_stepped_down();
  EXPECT_EQ(reverts_delta(), one(FdsAgent::kRevertFreshSelfNews));
  EXPECT_EQ(applied_, 2);  // epoch 4's update, then the declaring one
}

TEST_F(StepDownFixture, StaleSelfNewsStepsDownAMarkedMember) {
  warm_up();
  EXPECT_EQ(victim().tune_level(), 3);
  // The head's cumulative list names the victim, but not as this epoch's
  // news: the cluster moved on while the victim was not listening.
  fds_->agent_for(NodeId{0}).log().record(
      kVictim, {network_->simulator().now(), 3, NodeId{0}});
  run_next();
  expect_stepped_down();
  EXPECT_EQ(reverts_delta(), one(FdsAgent::kRevertStaleSelfNews));
  EXPECT_EQ(applied_, 1);
}

TEST_F(StepDownFixture, RosterWithoutTheVictimStepsItDown) {
  warm_up();
  EXPECT_EQ(victim().tune_level(), 3);
  // The head no longer counts the victim as a member, and its failure log
  // does not name it either: only the roster check catches this.
  views_[0]->remove_members({kVictim});
  run_next();
  expect_stepped_down();
  EXPECT_EQ(reverts_delta(), one(FdsAgent::kRevertRosterDropped));
  EXPECT_EQ(applied_, 1);
}

TEST_F(StepDownFixture, MissedUpdatesStepDownAfterTunedPatience) {
  warm_up();
  EXPECT_EQ(victim().tune_level(), 3);
  // The victim goes deaf: every scheduled update (and every peer forward)
  // is lost. Its patience is kReaffiliateAfterMissed plus its tune level,
  // 3 + 3: epochs 4-9 go missing, and epoch 10's begin_epoch steps down.
  gate().deaf = {kVictim};
  while (victim().view().affiliated() && next_epoch_ < 16) run_next();
  EXPECT_EQ(next_epoch_, 11u);
  expect_stepped_down();
  EXPECT_EQ(reverts_delta(), one(FdsAgent::kRevertMissedUpdates));
  EXPECT_EQ(applied_, 0);
}

}  // namespace
}  // namespace cfds
