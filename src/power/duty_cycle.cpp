#include "power/duty_cycle.h"

#include "common/expect.h"

namespace cfds {

DutyCycleScheduler::DutyCycleScheduler(Network& network, FdsService& fds,
                                       DutyCycleConfig config, Rng rng)
    : network_(network), fds_(fds), config_(config), rng_(rng) {
  CFDS_EXPECT(config_.sleep_fraction >= 0.0 && config_.sleep_fraction <= 1.0,
              "sleep fraction outside [0,1]");
}

std::vector<NodeId> DutyCycleScheduler::begin_window(SimTime now,
                                                     SimTime interval) {
  // Only ordinary members duty-cycle: CHs, deputies and gateways carry
  // roles the cluster depends on every execution (the clustering already
  // concentrates duty on them; that asymmetry is the architecture's price).
  std::vector<NodeId> candidates;
  for (FdsAgent* agent : fds_.agents()) {
    if (!network_.node(agent->id()).alive()) continue;
    if (!agent->view().affiliated()) continue;
    if (agent->view().role() != Role::kOrdinaryMember) continue;
    candidates.push_back(agent->id());
  }

  std::vector<NodeId> sleepers;
  for (NodeId candidate : candidates) {
    if (!rng_.bernoulli(config_.sleep_fraction)) continue;
    sleepers.push_back(candidate);
    FdsAgent& agent = fds_.agent_for(candidate);
    if (config_.announce) {
      agent.announce_sleep(config_.sleep_epochs);
    } else {
      network_.node(candidate).set_powered(false);
    }
    ++asleep_;
    // Wake shortly before the first execution after the window, so the
    // node's next heartbeat is heard on schedule.
    const SimTime wake_at =
        now + std::int64_t(config_.sleep_epochs + 1) * interval -
        SimTime::micros(interval.as_micros() / 10);
    network_.simulator().schedule_at(wake_at, [this, candidate] {
      fds_.agent_for(candidate).wake_up();
      --asleep_;
    });
  }
  ++windows_;
  return sleepers;
}

}  // namespace cfds
