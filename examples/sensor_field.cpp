// Sensor field monitoring — the paper's motivating application (Sections
// 1-2): an air-dropped sensor network whose operations team must be "kept
// updated on the network's health" so that capacity exhaustion is caught
// early and replenishment can be scheduled.
//
// Simulates 20 FDS executions over a 500-node field with random sensor
// attrition. Each epoch prints the operations view: true population vs what
// the FDS reports and the completeness of the latest casualty. When the
// reported population crosses the capacity threshold, a replenishment drop
// is released; the newcomers join the running system through
// unmarked-heartbeat subscription (feature F5) — no redeployment of the
// cluster structure.

#include <cstdio>
#include <utility>
#include <vector>

#include "sim/scenario.h"

int main() {
  using namespace cfds;

  ScenarioConfig config;
  config.width = 700.0;
  config.height = 450.0;
  config.node_count = 500;
  config.loss_p = 0.15;  // harsh RF environment
  config.fds.heartbeat_interval = SimTime::seconds(2);
  config.seed = 404;

  Scenario scenario(config);
  scenario.setup();
  std::printf("sensor field deployed: %zu sensors, %zu clusters\n",
              config.node_count, scenario.cluster_count());

  Rng chaos(777);
  const std::size_t capacity_threshold = 480;
  std::size_t deployed_total = config.node_count;
  std::vector<std::pair<NodeId, SimTime>> casualties;  // (victim, crash)

  auto detected_count = [&] {
    std::size_t n = 0;
    for (const auto& [victim, crashed_at] : casualties) {
      if (scenario.metrics().first_detection_since(victim, crashed_at)) ++n;
    }
    return n;
  };

  std::printf("\n%-6s %8s %10s %10s %12s %10s\n", "epoch", "alive",
              "reported", "backlog", "coverage", "false+");

  for (int epoch = 0; epoch < 20; ++epoch) {
    // Attrition: each epoch 0-3 sensors die (battery, weather, wildlife).
    const auto deaths = chaos.below(4);
    for (std::uint64_t d = 0; d < deaths; ++d) {
      const std::vector<NodeId> alive_members =
          scenario.alive_ordinary_members();
      if (alive_members.empty()) break;
      const NodeId victim = alive_members[chaos.below(alive_members.size())];
      scenario.network().crash(victim);
      casualties.emplace_back(victim, scenario.network().simulator().now());
    }

    scenario.run_epochs(1);

    // Operations view: the report a base-station clusterhead would transmit
    // upstream. We read the best-informed alive clusterhead.
    std::size_t known_failed = 0;
    for (FdsAgent* agent : scenario.fds().agents()) {
      if (!agent->view().is_clusterhead()) continue;
      if (!scenario.network().node(agent->id()).alive()) continue;
      known_failed = std::max(known_failed, agent->log().size());
    }

    const std::size_t truly_alive = scenario.network().alive_count();
    const std::size_t reported_alive = deployed_total - known_failed;
    const double coverage =
        casualties.empty()
            ? 1.0
            : knowledge_coverage(scenario.fds(), scenario.network(),
                                 casualties.back().first);

    std::printf("%-6d %8zu %10zu %10zu %12.2f %10zu\n", epoch, truly_alive,
                reported_alive, casualties.size() - detected_count(),
                coverage, scenario.metrics().false_detections());

    // Early-warning logic (Section 1): reported capacity below the
    // threshold schedules a replenishment drop.
    if (reported_alive < capacity_threshold) {
      const std::size_t drop = capacity_threshold + 10 - reported_alive;
      const auto added = scenario.replenish(drop);
      deployed_total += added.size();
      std::printf("       >>> capacity %zu < %zu: dropping %zu replacement"
                  " sensors (they self-subscribe) <<<\n",
                  reported_alive, capacity_threshold, added.size());
    }
  }

  // Two extra executions give the last drop time to self-subscribe.
  scenario.run_epochs(2);

  // Replenished sensors near a clusterhead have been admitted by now;
  // stragglers outside every CH's range wait for a formation iteration.
  std::size_t affiliated_newcomers = 0, newcomers = 0;
  for (MembershipView* view : scenario.views()) {
    if (view->self().value() >= config.node_count) {
      ++newcomers;
      if (view->affiliated()) ++affiliated_newcomers;
    }
  }

  std::printf("\nfinal: %zu casualties injected, %zu detected, %zu false"
              " detections\n",
              casualties.size(), detected_count(),
              scenario.metrics().false_detections());
  std::printf("replenishment: %zu dropped, %zu admitted to clusters via"
              " F5 subscription\n",
              newcomers, affiliated_newcomers);
  return 0;
}
