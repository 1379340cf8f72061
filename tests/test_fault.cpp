// Tests for the fault-injection engine: FaultPlan serialization, the
// injector's crash/recover/freeze semantics, the plan runtime's windows in
// the simulator and service bindings, crash-recovery rejoin, DCH takeover
// arbitration when the old CH comes back, and the chaos oracle (the
// invariant library itself is tested in test_snapshot.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <utility>
#include <string>
#include <vector>

#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/oracle.h"
#include "fault/plan_runtime.h"
#include "radio/payload.h"
#include "sim/scenario.h"
#include "transport/drop_filter.h"

namespace cfds::fault {
namespace {

/// The oracle's verdict as text, one violation per line: empty when every
/// invariant holds, and readable in the failure message when one does not.
std::string verdict(const std::vector<InvariantViolation>& violations) {
  std::string out;
  for (const InvariantViolation& v : violations) {
    out += std::string(v.invariant) + ": " + v.detail + "\n";
  }
  return out;
}

ChaosProfile test_profile() {
  ChaosProfile profile;
  profile.node_count = 40;
  profile.width = 400.0;
  profile.height = 300.0;
  profile.range = 100.0;
  return profile;
}

/// Small fault-free deployment with crash-recovery semantics on. Loss is
/// zero so every protocol step is deterministic and convergence is fast.
ScenarioConfig small_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.width = 400.0;
  config.height = 300.0;
  config.node_count = 40;
  config.loss_p = 0.0;
  config.seed = seed;
  config.fds.recovery_enabled = true;
  return config;
}

/// Any affiliated plain member (not CH, not deputy).
NodeId find_plain_member(Scenario& scenario) {
  for (MembershipView* view : scenario.views()) {
    if (view->affiliated() && !view->is_clusterhead() && !view->is_deputy() &&
        scenario.network().node(view->self()).alive()) {
      return view->self();
    }
  }
  ADD_FAILURE() << "no plain member found";
  return NodeId::invalid();
}

/// A clusterhead that has at least one deputy.
MembershipView* find_ch_with_deputy(Scenario& scenario) {
  for (MembershipView* view : scenario.views()) {
    if (view->is_clusterhead() && !view->cluster()->deputies.empty()) {
      return view;
    }
  }
  ADD_FAILURE() << "no clusterhead with a deputy found";
  return nullptr;
}

/// Alive nodes currently acting as clusterhead of cluster `cid`.
std::vector<NodeId> acting_chs(Scenario& scenario, std::uint32_t cid) {
  std::vector<NodeId> heads;
  for (MembershipView* view : scenario.views()) {
    if (scenario.network().node(view->self()).alive() &&
        view->is_clusterhead() && view->cluster()->id.value() == cid) {
      heads.push_back(view->self());
    }
  }
  return heads;
}

TEST(FaultPlanTest, RandomIsDeterministic) {
  const ChaosProfile profile = test_profile();
  const FaultPlan a = FaultPlan::random(42, profile);
  const FaultPlan b = FaultPlan::random(42, profile);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.events.empty());
  EXPECT_NE(a, FaultPlan::random(43, profile));
}

TEST(FaultPlanTest, JsonlRoundTrip) {
  const FaultPlan plan = FaultPlan::random(7, test_profile());
  std::string error;
  const auto parsed = FaultPlan::parse_jsonl(plan.to_jsonl(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, plan);
}

TEST(FaultPlanTest, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse_jsonl("{\"fault\":\"warp_core\"}", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::parse_jsonl("{\"fault\":\"crash\"}", &error));
}

// Every kind, with field values a double-typed parser would corrupt: 64-bit
// timestamps above 2^53 and a full-width seed must survive the round trip
// bit for bit.
TEST(FaultPlanTest, JsonlRoundTripCoversEveryKind) {
  FaultPlan plan;
  plan.seed = 0xFFFFFFFFFFFFFFFFull;
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.node = 7;
  crash.at_us = (std::int64_t(1) << 60) + 1;
  FaultEvent recover;
  recover.kind = FaultKind::kRecover;
  recover.node = 7;
  recover.at_us = (std::int64_t(1) << 60) + 2;
  FaultEvent freeze;
  freeze.kind = FaultKind::kFreeze;
  freeze.node = 3;
  freeze.at_us = 250000;
  freeze.duration_us = (std::int64_t(1) << 53) + 1;
  FaultEvent link;
  link.kind = FaultKind::kLinkDown;
  link.node = 1;
  link.peer = 0xFFFFFFFFu;
  link.at_us = 500000;
  link.duration_us = 750000;
  FaultEvent jam;
  jam.kind = FaultKind::kJam;
  jam.x = 120.5;
  jam.y = 80.25;
  jam.radius = 55.0;
  jam.at_us = 1000000;
  jam.duration_us = 2000000;
  FaultEvent drift;
  drift.kind = FaultKind::kClockDrift;
  drift.node = 9;
  drift.start_epoch = 2;
  drift.end_epoch = 0x20000000000001ull;  // 2^53 + 1
  drift.per_epoch_us = -40000;            // drift may run behind, not ahead
  FaultEvent loss;
  loss.kind = FaultKind::kLoss;
  loss.x = 0.75;
  loss.at_us = 300000;
  loss.duration_us = 600000;
  plan.events = {crash, recover, freeze, link, jam, drift, loss};

  std::string error;
  const auto parsed = FaultPlan::parse_jsonl(plan.to_jsonl(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, plan);
}

TEST(FaultPlanTest, ParseRejectsNonIntegerAndOutOfRangeFields) {
  std::string error;
  // Fractional and exponent forms are not integers.
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"crash\",\"node\":1,\"at_us\":1.5}", &error));
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"crash\",\"node\":1,\"at_us\":1e3}", &error));
  // A negative value must fail an unsigned field, not wrap.
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"crash\",\"node\":-1,\"at_us\":0}", &error));
  // Out of range: node is u32, at_us is i64.
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"crash\",\"node\":4294967296,\"at_us\":0}", &error));
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"crash\",\"node\":1,\"at_us\":9223372036854775808}",
      &error));
  // Wrong type entirely.
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"crash\",\"node\":\"x\",\"at_us\":0}", &error));
}

TEST(FaultPlanTest, ParseRejectsNonFiniteNumbers) {
  // JSON has no NaN or infinity, and a NaN field would make an accepted plan
  // unequal to itself after a round trip.
  std::string error;
  for (const char* value : {"nan", "-nan", "inf", "-infinity", "1e999"}) {
    const std::string line = std::string("{\"fault\":\"loss\",\"x\":") +
                             value + ",\"at_us\":0,\"duration_us\":1}";
    EXPECT_FALSE(FaultPlan::parse_jsonl(line, &error)) << value;
  }
}

TEST(FaultPlanTest, ParseRejectsMissingPerKindFields) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"freeze\",\"node\":1,\"at_us\":0}", &error));
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"link_down\",\"node\":1,\"at_us\":0,\"duration_us\":1}",
      &error));
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"jam\",\"x\":1,\"y\":2,\"at_us\":0,\"duration_us\":1}",
      &error));
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"clock_drift\",\"node\":1,\"start_epoch\":0,"
      "\"per_epoch_us\":1}",
      &error));
  EXPECT_FALSE(FaultPlan::parse_jsonl(
      "{\"fault\":\"loss\",\"at_us\":0,\"duration_us\":1}", &error));
}

TEST(FaultPlanTest, ParsePreservesLargeIntegersExactly) {
  // 2^60 + 1 is not representable as a double; a strtod-based parser would
  // silently round it to 2^60.
  const std::string text =
      "{\"fault\":\"crash\",\"node\":3,\"at_us\":1152921504606846977}\n";
  std::string error;
  const auto plan = FaultPlan::parse_jsonl(text, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 1u);
  EXPECT_EQ(plan->events[0].at_us, 1152921504606846977ll);
}

TEST(FaultPlanTest, RandomRespectsMixAndHorizon) {
  const ChaosProfile profile = test_profile();
  const FaultPlan plan = FaultPlan::random(11, profile);
  const std::int64_t horizon_us =
      std::int64_t(profile.fault_epochs) *
      profile.epoch_interval.as_micros();
  int crashes = 0, freezes = 0, links = 0, jams = 0, drifts = 0;
  for (const FaultEvent& e : plan.events) {
    EXPECT_GE(e.at_us, 0);
    EXPECT_LE(e.at_us + e.duration_us, horizon_us);
    switch (e.kind) {
      case FaultKind::kCrash: ++crashes; break;
      case FaultKind::kRecover: break;
      case FaultKind::kFreeze: ++freezes; break;
      case FaultKind::kLinkDown: ++links; break;
      case FaultKind::kJam: ++jams; break;
      case FaultKind::kClockDrift:
        ++drifts;
        EXPECT_LE(e.end_epoch, profile.fault_epochs);
        break;
      case FaultKind::kLoss: break;  // opt-in via loss_bursts, 0 here
    }
  }
  EXPECT_EQ(crashes, profile.crashes);
  EXPECT_EQ(freezes, profile.freezes);
  EXPECT_EQ(links, profile.link_downs);
  EXPECT_EQ(jams, profile.jams);
  EXPECT_EQ(drifts, profile.clock_drifts);
}

TEST(SwitchableLossTest, TogglesBetweenInnerAndPerfect) {
  SwitchableLoss loss(std::make_unique<BernoulliLoss>(1.0));
  Rng rng(1);
  EXPECT_TRUE(loss.lost(NodeId{0}, {}, NodeId{1}, {}, rng));
  loss.set_perfect(true);
  EXPECT_FALSE(loss.lost(NodeId{0}, {}, NodeId{1}, {}, rng));
  loss.set_perfect(false);
  EXPECT_TRUE(loss.lost(NodeId{0}, {}, NodeId{1}, {}, rng));
}

TEST(FaultInjectorTest, CrashedNodeRecoversAndRejoins) {
  Scenario scenario(small_config(3));
  scenario.setup();
  scenario.run_epochs(2);
  const NodeId victim = find_plain_member(scenario);
  const SimTime phi = scenario.config().fds.heartbeat_interval;

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.at_us = SimTime::millis(100).as_micros();
  crash.node = victim.value();
  FaultEvent recover;
  recover.kind = FaultKind::kRecover;
  recover.at_us = 2 * phi.as_micros() + SimTime::millis(500).as_micros();
  recover.node = victim.value();
  plan.events = {crash, recover};

  FaultInjector injector(scenario);
  injector.install(plan);

  scenario.run_epochs(2);
  EXPECT_FALSE(scenario.network().node(victim).alive());
  EXPECT_TRUE(scenario.metrics().first_detection(victim).has_value());

  scenario.run_epochs(1);
  EXPECT_TRUE(scenario.network().node(victim).alive());
  EXPECT_EQ(scenario.network().node(victim).incarnation(), 1u);

  scenario.run_epochs(6);
  const MembershipView& view = *scenario.views()[victim.value()];
  EXPECT_TRUE(view.affiliated());
  EXPECT_TRUE(scenario.network().node(victim).marked());
  EXPECT_EQ(verdict(ChaosOracle::check(scenario)), "");
}

TEST(FaultInjectorTest, FrozenNodeThawsWithStaleStateAndReconciles) {
  Scenario scenario(small_config(5));
  scenario.setup();
  scenario.run_epochs(2);
  const NodeId victim = find_plain_member(scenario);
  const SimTime phi = scenario.config().fds.heartbeat_interval;

  FaultPlan plan;
  FaultEvent freeze;
  freeze.kind = FaultKind::kFreeze;
  freeze.at_us = SimTime::millis(100).as_micros();
  freeze.duration_us = 3 * phi.as_micros();
  freeze.node = victim.value();
  plan.events = {freeze};

  FaultInjector injector(scenario);
  injector.install(plan);

  // During the omission window the cluster declares the silent node failed;
  // the node itself never notices it was gone.
  scenario.run_epochs(3);
  EXPECT_TRUE(scenario.network().node(victim).alive());
  EXPECT_TRUE(scenario.metrics().first_detection(victim).has_value());

  // After the thaw it detects its own staleness and re-runs affiliation;
  // the failure-log entries about it are reconciled away.
  injector.clear_channel_faults();
  scenario.run_epochs(8);
  EXPECT_TRUE(scenario.views()[victim.value()]->affiliated());
  EXPECT_EQ(verdict(ChaosOracle::check(scenario)), "");
}

// Regression: a node crashing mid-round used to leave its deputy-check and
// forward timers pending; they fired on the dead node and resurrected its
// protocol activity. Timers are generation-guarded now.
TEST(FaultInjectorTest, CrashMidRoundCancelsPendingTimers) {
  Scenario scenario(small_config(9));
  scenario.setup();
  scenario.run_epochs(2);
  MembershipView* ch_view = find_ch_with_deputy(scenario);
  ASSERT_NE(ch_view, nullptr);
  const NodeId deputy = ch_view->cluster()->deputies.front();

  // Crash the primary deputy 1.5 rounds into the execution: its heartbeat is
  // out, digests are in flight, and the T+3Thop deputy check is pending.
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.at_us = SimTime::millis(150).as_micros();
  crash.node = deputy.value();
  plan.events = {crash};

  FaultInjector injector(scenario);
  injector.install(plan);
  scenario.run_epochs(1);
  EXPECT_FALSE(scenario.network().node(deputy).alive());
  const auto sent_at_death =
      scenario.network().node(deputy).radio().counters().frames_sent;

  scenario.run_epochs(4);
  // A dead node's pending timers must not fire: not one more frame.
  EXPECT_EQ(scenario.network().node(deputy).radio().counters().frames_sent,
            sent_at_death);
  EXPECT_TRUE(scenario.metrics().first_detection(deputy).has_value());
  scenario.run_epochs(4);
  EXPECT_EQ(verdict(ChaosOracle::check(scenario)), "");
}

// ---------------------------------------------------------------------------
// One plan, two deployments. The simulator binding (FaultInjector over a
// Scenario) and the service binding (a runtime over a bare DropFilter and a
// private Simulator as its timer service) must open and close the same
// windows at the same instants. The plan, as offsets from the fault phase's
// start:
//
//   freeze A       [100, 500) and [300, 800) ms  -> A muted over [100, 800)
//   link_down A-B  [200, 500) ms                 -> blocked over [200, 500)
//   jam            [400, 700) ms, disk around P  -> P jammed over [400, 700)
//   loss           0.6 [150, 450), 0.4 [350, 750) ms
//                                 -> override engaged over [150, 750) in the
//                                    simulator; no loss stage in a service
//   clock_drift A  epochs [1, 3), +5 ms per epoch -> skew 0, 5, 10, 0 ms

constexpr std::uint32_t kNodeA = 4;
constexpr std::uint32_t kNodeB = 9;
constexpr Vec2 kJamCentre{150.0, 120.0};
constexpr std::int64_t kSampleMs[] = {50,  120, 180, 250, 320, 380,
                                      460, 520, 650, 720, 780, 900};

/// The fault state one deployment shows at one instant.
struct WindowSample {
  bool muted = false;    ///< node A muted
  bool blocked = false;  ///< link {A, B} blocked
  bool jammed = false;   ///< the jam disk's centre jammed
  bool loss = false;     ///< channel-wide loss override engaged

  friend bool operator==(const WindowSample&, const WindowSample&) = default;
};

std::ostream& operator<<(std::ostream& os, const WindowSample& s) {
  return os << "{muted " << s.muted << ", blocked " << s.blocked
            << ", jammed " << s.jammed << ", loss " << s.loss << "}";
}

WindowSample sample(const DropFilter& filter, bool loss) {
  return {filter.is_muted(NodeId{kNodeA}),
          filter.link_blocked(NodeId{kNodeA}, NodeId{kNodeB}),
          filter.jammed(kJamCentre), loss};
}

/// The documented windows at `ms` after the anchor.
WindowSample documented(std::int64_t ms, bool has_loss_stage) {
  return {ms >= 100 && ms < 800, ms >= 200 && ms < 500,
          ms >= 400 && ms < 700, has_loss_stage && ms >= 150 && ms < 750};
}

/// The documented drift of `node` in relative epoch `rel`, in microseconds.
std::int64_t documented_skew_us(std::uint32_t node, std::uint64_t rel) {
  if (node != kNodeA || rel < 1 || rel >= 3) return 0;
  return 5000 * std::int64_t(rel);
}

FaultPlan window_plan() {
  auto window = [](FaultKind kind, std::int64_t from_ms, std::int64_t to_ms) {
    FaultEvent e;
    e.kind = kind;
    e.node = kNodeA;
    e.peer = kNodeB;
    e.at_us = from_ms * 1000;
    e.duration_us = (to_ms - from_ms) * 1000;
    return e;
  };
  FaultEvent jam = window(FaultKind::kJam, 400, 700);
  jam.x = kJamCentre.x;
  jam.y = kJamCentre.y;
  jam.radius = 30.0;
  FaultEvent burst = window(FaultKind::kLoss, 150, 450);
  burst.x = 0.6;
  FaultEvent storm = window(FaultKind::kLoss, 350, 750);
  storm.x = 0.4;
  FaultEvent drift;
  drift.kind = FaultKind::kClockDrift;
  drift.node = kNodeA;
  drift.start_epoch = 1;
  drift.end_epoch = 3;
  drift.per_epoch_us = 5000;
  FaultPlan plan;
  plan.events = {window(FaultKind::kFreeze, 100, 500),
                 window(FaultKind::kFreeze, 300, 800),
                 window(FaultKind::kLinkDown, 200, 500),
                 jam,
                 burst,
                 storm,
                 drift};
  return plan;
}

TEST(FaultRuntimeTest, WindowsMatchAcrossDeployments) {
  const FaultPlan plan = window_plan();

  // Simulator binding.
  Scenario scenario(small_config(3));
  scenario.setup();
  scenario.run_epochs(1);
  const SimTime anchor = scenario.next_epoch_time();
  const std::uint64_t base = scenario.epochs_run();
  const std::int64_t phi_us =
      scenario.config().fds.heartbeat_interval.as_micros();
  Simulator& sim = scenario.network().simulator();
  Channel& channel = scenario.network().channel();
  std::vector<WindowSample> sim_samples;
  for (std::int64_t ms : kSampleMs) {
    sim.schedule_at(anchor + SimTime::millis(ms), [&] {
      sim_samples.push_back(
          sample(channel.drop_filter(), channel.loss_override_active()));
    });
  }
  // A node's R-1 heartbeat leaves at its own round start, so its offset
  // from the epoch start is the skew the plan gives that node.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::int64_t> sent_us;
  channel.set_tap([&](NodeId sender, NodeId, const Payload& payload,
                      SimTime when) {
    if (payload.tag() != PayloadKind::kHeartbeat) return;
    const std::int64_t since = when.as_micros() - anchor.as_micros();
    const std::uint64_t rel = std::uint64_t(since / phi_us);
    sent_us.emplace(std::pair{sender.value(), rel},
                    since - std::int64_t(rel) * phi_us);
  });
  const std::size_t before = sim.pending_events();
  FaultInjector injector(scenario);
  injector.install(plan);
  // Open and close of two freezes, a link_down, a jam and two loss bursts.
  EXPECT_EQ(sim.pending_events() - before, 12u);
  scenario.run_epochs(4);

  // Service binding: ServiceAgent's seam (only its own crash and recovery,
  // no loss stage) over a bare DropFilter.
  Simulator service_sim;
  DropFilter filter;
  PlanRuntime runtime(filter, service_sim,
                      {.lifecycle =
                           [](std::uint32_t, bool) {
                             ADD_FAILURE() << "the plan has no crash";
                           },
                       .self = kNodeA,
                       .loss = nullptr});
  std::vector<WindowSample> service_samples;
  for (std::int64_t ms : kSampleMs) {
    service_sim.schedule_at(anchor + SimTime::millis(ms), [&] {
      service_samples.push_back(sample(filter, false));
    });
  }
  runtime.install(plan, anchor, base);
  // No loss stage: the loss bursts schedule nothing.
  EXPECT_EQ(service_sim.pending_events(), std::size(kSampleMs) + 8);
  service_sim.run_until(anchor + SimTime::seconds(1));

  ASSERT_EQ(sim_samples.size(), std::size(kSampleMs));
  ASSERT_EQ(service_samples.size(), std::size(kSampleMs));
  for (std::size_t i = 0; i < std::size(kSampleMs); ++i) {
    const std::int64_t ms = kSampleMs[i];
    EXPECT_EQ(sim_samples[i], documented(ms, true)) << "at " << ms << " ms";
    EXPECT_EQ(service_samples[i], documented(ms, false))
        << "at " << ms << " ms";
    WindowSample without_loss = sim_samples[i];
    without_loss.loss = false;
    EXPECT_EQ(service_samples[i], without_loss) << "at " << ms << " ms";
  }
  for (std::uint64_t rel = 0; rel < 4; ++rel) {
    for (std::uint32_t id : {kNodeA, kNodeB}) {
      ASSERT_EQ(sent_us.count({id, rel}), 1u) << "node " << id;
      EXPECT_EQ(sent_us.at({id, rel}), documented_skew_us(id, rel))
          << "node " << id << ", epoch " << rel;
      EXPECT_EQ(runtime.skew(NodeId{id}, base + rel).as_micros(),
                documented_skew_us(id, rel))
          << "node " << id << ", epoch " << rel;
    }
  }
}

// Section 4.2 arbitration: the CH crashes, the highest-ranked deputy takes
// over, then the old CH recovers. The old CH must come back as a plain
// member; exactly one acting CH, stable for 10 further rounds.
TEST(ChRecoveryTest, DeputyKeepsClusterWhenOldChRejoins) {
  Scenario scenario(small_config(13));
  scenario.setup();
  scenario.run_epochs(2);
  MembershipView* ch_view = find_ch_with_deputy(scenario);
  ASSERT_NE(ch_view, nullptr);
  const NodeId old_ch = ch_view->self();
  const NodeId deputy = ch_view->cluster()->deputies.front();
  const std::uint32_t cid = ch_view->cluster()->id.value();

  scenario.network().crash(old_ch);
  scenario.run_epochs(3);
  ASSERT_EQ(acting_chs(scenario, cid), std::vector<NodeId>{deputy});

  scenario.network().recover(old_ch);
  scenario.run_epochs(5);
  const MembershipView& rejoined = *scenario.views()[old_ch.value()];
  EXPECT_TRUE(rejoined.affiliated());
  EXPECT_FALSE(rejoined.is_clusterhead());
  EXPECT_EQ(rejoined.cluster()->clusterhead, deputy);

  // No oscillation: the arbitration outcome must hold round after round.
  for (int round = 0; round < 10; ++round) {
    scenario.run_epochs(1);
    EXPECT_EQ(acting_chs(scenario, cid), std::vector<NodeId>{deputy})
        << "round " << round;
    EXPECT_FALSE(scenario.views()[old_ch.value()]->is_clusterhead())
        << "round " << round;
  }
  EXPECT_EQ(verdict(ChaosOracle::check(scenario)), "");
}

TEST(ChaosTrialTest, SameSeedIsByteIdentical) {
  const ChaosConfig config;
  const ChaosResult a = run_chaos_trial(config, 17);
  const ChaosResult b = run_chaos_trial(config, 17);
  EXPECT_EQ(a.summary_json(), b.summary_json());
  EXPECT_EQ(a.plan, b.plan);
}

TEST(ChaosTrialTest, ReplayFromPlanMatchesGeneratedRun) {
  const ChaosConfig config;
  const ChaosResult direct = run_chaos_trial(config, 63);
  std::string error;
  const auto plan = FaultPlan::parse_jsonl(direct.plan.to_jsonl(), &error);
  ASSERT_TRUE(plan.has_value()) << error;
  const ChaosResult replayed = replay_chaos_trial(config, 63, *plan);
  EXPECT_EQ(replayed.summary_json(), direct.summary_json());
}

TEST(ChaosTrialTest, SummaryBytesArePinned) {
  // Taken from the snprintf writer this replaced.
  ChaosResult r;
  r.seed = 261;
  r.plan.events.resize(3);
  r.violations.push_back({"I1", "x"});
  r.alive = 47;
  r.clusters = 6;
  r.affiliation = 46.0 / 47.0;
  r.rejoins = 2;
  r.rejoin_pending = 1;
  r.rejoin_mean_us = 1234567;
  r.rejoin_max_us = 2500000;
  EXPECT_EQ(r.summary_json(),
            "{\"seed\":261,\"events\":3,\"violations\":1,\"alive\":47,"
            "\"clusters\":6,\"affiliation\":0.978723,\"rejoins\":2,"
            "\"rejoin_pending\":1,\"rejoin_mean_us\":1234567,"
            "\"rejoin_max_us\":2500000}");
}

TEST(ChaosCampaignTest, TwentySeedsPassTheOracle) {
  const ChaosConfig config;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ChaosResult result = run_chaos_trial(config, seed);
    EXPECT_TRUE(result.passed())
        << "seed " << seed << ":\n" << verdict(result.violations);
  }
}

TEST(ChaosOracleTest, FlagsDeadMemberThenClearsAfterConvergence) {
  Scenario scenario(small_config(21));
  scenario.setup();
  scenario.run_epochs(2);
  const NodeId victim = find_plain_member(scenario);
  scenario.network().crash(victim);

  // Immediately after the crash the views still carry the dead node (I5).
  const auto before = ChaosOracle::check(scenario);
  EXPECT_FALSE(before.empty());

  // One detection cycle later the protocol has purged it everywhere.
  scenario.run_epochs(4);
  EXPECT_EQ(verdict(ChaosOracle::check(scenario)), "");
}

}  // namespace
}  // namespace cfds::fault
