// Micro-UAV swarm — leadership loss under fire.
//
// The paper names "micro-UAV or nano-satellite swarms" among its target
// applications. This example stages the FDS's hardest scenario: the
// clusterhead of a formation is destroyed mid-mission over a *lossy* channel
// (p = 0.2). It traces, event by event, how
//   1. the highest-ranked deputy applies the CH-failure detection rule
//      (heartbeat + digest + missing R-3 update) and takes over,
//   2. members outside the new leader's radio range recover the takeover
//      update through peer forwarding,
//   3. gateways carry the report to the neighbouring formations, which
//      acknowledge implicitly by relaying.

#include <cstdio>
#include <vector>

#include "sim/scenario.h"

int main() {
  using namespace cfds;

  ScenarioConfig config;
  config.width = 650.0;
  config.height = 420.0;
  config.node_count = 420;
  config.loss_p = 0.20;
  config.fds.heartbeat_interval = SimTime::seconds(1);
  config.seed = 1942;

  Scenario scenario(config);
  scenario.setup();

  // Pick a well-populated formation and identify its command structure.
  const ClusterView* formation = nullptr;
  for (MembershipView* view : scenario.views()) {
    if (view->is_clusterhead() &&
        (formation == nullptr ||
         view->cluster()->population() > formation->population())) {
      formation = &*view->cluster();
    }
  }
  const NodeId leader = formation->clusterhead;
  const NodeId deputy = formation->deputies.front();
  std::printf("swarm up: %zu UAVs in %zu formations\n", config.node_count,
              scenario.cluster_count());
  std::printf("watching formation %u: leader=UAV-%u deputy=UAV-%u wingmen=%zu"
              " links=%zu\n\n",
              formation->id.value(), leader.value(), deputy.value(),
              formation->members.size(), formation->links.size());

  // Trace the protocol's decisions (chained so the metrics collector that
  // Scenario installed keeps seeing them too).
  chain_hook(scenario.fds().hooks().on_takeover,
             std::function([&](NodeId who, NodeId old_ch,
                               std::uint64_t epoch) {
    std::printf("  [epoch %llu] UAV-%u: leader UAV-%u silent on all three"
                " evidence channels -> assuming command\n",
                static_cast<unsigned long long>(epoch), who.value(),
                old_ch.value());
  }));
  chain_hook(scenario.fds().hooks().on_detection,
             std::function([&](NodeId decider, std::uint64_t epoch,
                               const std::vector<NodeId>& failed,
                               bool by_deputy) {
        for (NodeId f : failed) {
          std::printf("  [epoch %llu] %s UAV-%u reports UAV-%u down\n",
                      static_cast<unsigned long long>(epoch),
                      by_deputy ? "deputy" : "leader", decider.value(),
                      f.value());
        }
      }));

  scenario.run_epochs(2);
  std::printf("two quiet epochs: %zu detections, all formations nominal\n\n",
              scenario.metrics().detections().size());

  std::printf("*** UAV-%u (formation leader) is destroyed ***\n\n",
              leader.value());
  scenario.network().crash(leader);
  scenario.run_epochs(3);

  // Aftermath: command structure and swarm-wide knowledge.
  const MembershipView* deputy_view = scenario.views()[deputy.value()];
  std::printf("\naftermath:\n");
  std::printf("  formation %u now led by UAV-%u (%s)\n",
              deputy_view->cluster()->id.value(),
              deputy_view->cluster()->clusterhead.value(),
              deputy_view->is_clusterhead() ? "the former deputy"
                                            : "unexpected");
  std::printf("  swarm-wide awareness of the loss: %.1f%%\n",
              100.0 * knowledge_coverage(scenario.fds(), scenario.network(),
                                         leader));
  std::printf("  false detections under 20%% frame loss: %zu"
              " (a member outside the new leader's radio range can be"
              " falsely reported\n   — the Figure 2(a) accuracy hazard the"
              " digest round makes rare)\n",
              scenario.metrics().false_detections());

  // The new leader keeps the formation running: lose a wingman.
  const NodeId wingman = deputy_view->cluster()->members.front();
  std::printf("\n*** wingman UAV-%u is lost next ***\n\n", wingman.value());
  const SimTime wingman_lost = scenario.network().simulator().now();
  scenario.network().crash(wingman);
  scenario.run_epochs(2);
  const auto detection =
      scenario.metrics().first_detection_since(wingman, wingman_lost);
  if (detection && detection->decider == deputy) {
    std::printf("\nthe new leader detected and reported the loss — command"
                " transfer is complete.\n");
  } else if (detection) {
    std::printf("\nloss detected by UAV-%u.\n", detection->decider.value());
  }
  return 0;
}
