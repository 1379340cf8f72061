// Death tests for precondition checking: a corrupted simulation must crash
// loudly, not proceed quietly.

#include <gtest/gtest.h>

#include "common/expect.h"
#include "event/simulator.h"
#include "fds/agent.h"
#include "net/network.h"
#include "radio/loss_model.h"

namespace cfds {
namespace {

TEST(ExpectDeath, MacroAbortsWithDiagnostic) {
  EXPECT_DEATH(CFDS_EXPECT(false, "intentional"), "intentional");
  CFDS_EXPECT(true, "never fires");  // the passing path is silent
}

TEST(ExpectDeath, SchedulingInThePastAborts) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(5), [] {});
  sim.run_to_completion();
  EXPECT_DEATH(sim.schedule_at(SimTime::seconds(1), [] {}),
               "cannot schedule events in the past");
}

TEST(ExpectDeath, CalendarInsertBeyondHorizonAborts) {
  // The horizon invariant is load-bearing: an entry past the horizon would
  // wrap the wheel and fire a lap early, silently corrupting event order.
  // The wheel must abort loudly instead (the kernel routes such events to
  // its overflow heap and never trips this).
  CalendarQueue queue;
  EventEntry entry{CalendarQueue::horizon() + SimTime::micros(1), 0, 0, 0};
  EXPECT_DEATH(queue.insert(entry, SimTime::zero()),
               "beyond the bounded horizon");
  entry.when = CalendarQueue::horizon();  // exactly at the horizon is fine
  queue.insert(entry, SimTime::zero());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(ExpectDeath, CalendarInsertInThePastAborts) {
  CalendarQueue queue;
  const EventEntry entry{SimTime::millis(1), 0, 0, 0};
  EXPECT_DEATH(queue.insert(entry, SimTime::millis(2)),
               "calendar insert in the past");
}

TEST(ExpectDeath, InvalidLossProbabilityAborts) {
  EXPECT_DEATH(BernoulliLoss(-0.1), "loss probability");
  EXPECT_DEATH(BernoulliLoss(1.5), "loss probability");

  // Rng::bernoulli would silently clamp these, so the constructor rejects
  // them: state loss probabilities in [0,1], transitions in (0,1].
  const auto ge = [](double p_good, double p_bad, double p_gb, double p_bg) {
    GilbertElliottLoss::Params params;
    params.p_good = p_good;
    params.p_bad = p_bad;
    params.p_gb = p_gb;
    params.p_bg = p_bg;
    return GilbertElliottLoss(params);
  };
  EXPECT_DEATH(ge(-0.2, 0.8, 0.05, 0.3), "loss probability outside");
  EXPECT_DEATH(ge(0.01, 1.5, 0.05, 0.3), "loss probability outside");
  EXPECT_DEATH(ge(0.01, 0.8, 0.0, 0.3), "transition outside");
  EXPECT_DEATH(ge(0.01, 0.8, 1.5, 0.3), "transition outside");
  EXPECT_DEATH(ge(0.01, 0.8, 0.05, 0.0), "transition outside");
  EXPECT_DEATH(ge(0.01, 0.8, 0.05, -0.2), "transition outside");
  // The boundaries themselves are valid.
  (void)ge(0.0, 1.0, 1.0, 1.0);
}

TEST(ExpectDeath, UnknownNodeLookupAborts) {
  NetworkConfig config;
  Network network(config, std::make_unique<PerfectLinks>());
  network.add_node({0, 0});
  EXPECT_DEATH((void)network.node(NodeId{42}), "unknown node id");
}

TEST(ExpectDeath, TooShortHeartbeatIntervalAborts) {
  NetworkConfig net_config;
  Network network(net_config, std::make_unique<PerfectLinks>());
  network.add_node({0, 0});
  std::vector<MembershipView*> views;
  MembershipView view{NodeId{0}};
  views.push_back(&view);
  FdsConfig fds_config;
  fds_config.heartbeat_interval = SimTime::millis(100);  // == Thop
  EXPECT_DEATH(FdsService(network, views, fds_config),
               "phi must be at least 7");
}

// FdsConfig::validate is the single choke point every bench and tool entry
// point runs before touching the network; each documented constraint must
// abort, and a conforming config must pass silently.
TEST(ExpectDeath, FdsConfigValidateEnforcesEveryConstraint) {
  const SimTime t_hop = SimTime::millis(100);

  FdsConfig ok;
  ok.heartbeat_interval = SimTime::millis(800);
  ok.validate(t_hop);  // the conforming baseline is silent

  FdsConfig short_phi = ok;
  short_phi.heartbeat_interval = SimTime::millis(699);  // 7*Thop - 1ms
  EXPECT_DEATH(short_phi.validate(t_hop), "phi must be at least 7");
  short_phi.heartbeat_interval = SimTime::millis(700);  // exactly 7*Thop
  short_phi.validate(t_hop);

  EXPECT_DEATH(ok.validate(SimTime::zero()), "Thop must be positive");

  FdsConfig wild_skew = ok;
  wild_skew.max_clock_skew = SimTime::millis(401);  // > phi/2
  EXPECT_DEATH(wild_skew.validate(t_hop), "max_clock_skew");
  wild_skew.max_clock_skew = SimTime::millis(400);  // exactly phi/2
  wild_skew.validate(t_hop);

  FdsConfig zero_threshold = ok;
  zero_threshold.adaptive_enabled = true;
  zero_threshold.accrual_threshold_milli = 0;
  EXPECT_DEATH(zero_threshold.validate(t_hop), "accrual threshold");

  FdsConfig orphan_checkpoint = ok;
  orphan_checkpoint.checkpoint_enabled = true;  // without recovery_enabled
  EXPECT_DEATH(orphan_checkpoint.validate(t_hop), "requires recovery_enabled");

  FdsConfig zero_interval = ok;
  zero_interval.checkpoint_enabled = true;
  zero_interval.recovery_enabled = true;
  zero_interval.checkpoint_interval_epochs = 0;
  EXPECT_DEATH(zero_interval.validate(t_hop), "positive interval");

  zero_interval.checkpoint_interval_epochs = 2;
  zero_interval.validate(t_hop);  // checkpoint + recovery together is fine
}

}  // namespace
}  // namespace cfds
