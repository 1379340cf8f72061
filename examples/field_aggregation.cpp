// In-network aggregation with FDS piggybacking (Section 6).
//
// A 350-sensor field measures temperature. Every FDS execution, each sensor
// emits one MeasurementPayload that simultaneously
//   * carries its reading to the clusterhead (aggregation), and
//   * serves as its heartbeat (failure detection) — no separate frame.
// Clusterheads fold readings into per-cluster aggregates, flood them over
// the gateway backbone, and any clusterhead can answer global queries.
// Midway, a heat event raises readings in one corner and a sensor dies;
// the same frames carry both stories.

#include <cmath>
#include <cstdio>

#include "aggregation/service.h"
#include "sim/scenario.h"

int main() {
  using namespace cfds;

  ScenarioConfig config;
  config.width = 600.0;
  config.height = 400.0;
  config.node_count = 350;
  config.loss_p = 0.1;
  config.seed = 808;
  config.fds.external_heartbeats = true;  // measurements ARE heartbeats
  config.enable_forwarder = false;  // aggregates flood the backbone instead
  Scenario scenario(config);
  scenario.setup();
  Network& network = scenario.network();
  const std::vector<MembershipView*>& views = scenario.views();

  // Temperature field: ambient 18C; from epoch 4, a hot spot grows around
  // the north-east corner.
  bool heat_event = false;
  AggregationService aggregation(
      network, scenario.fds(), views, [&](NodeId node, std::uint64_t) {
        const Vec2 pos = network.node(node).position();
        double temperature = 18.0 + 0.01 * pos.y;
        if (heat_event) {
          const double d = distance(pos, {config.width, config.height});
          temperature += 25.0 * std::exp(-d / 120.0);
        }
        return temperature;
      });

  std::printf("field up: %zu sensors, %zu clusters; measurements double as"
              " heartbeats\n\n",
              config.node_count, scenario.cluster_count());
  std::printf("%-6s %8s %8s %8s %8s %8s\n", "epoch", "sensors", "avg C",
              "max C", "alarms", "false+");

  const NodeId victim = scenario.alive_ordinary_members().back();
  SimTime crashed_at = SimTime::zero();
  const SimTime phi = config.fds.heartbeat_interval;

  for (std::uint64_t epoch = 0; epoch < 10; ++epoch) {
    if (epoch == 4) {
      heat_event = true;
      std::printf("       *** heat event begins in the NE corner ***\n");
    }
    if (epoch == 6) {
      network.crash(victim);
      crashed_at = network.simulator().now();
      std::printf("       *** sensor %u burns out ***\n", victim.value());
    }
    aggregation.schedule_epoch(epoch, std::int64_t(epoch) * phi);
    network.simulator().run_until(std::int64_t(epoch + 1) * phi);

    // Read the global view at the best-informed clusterhead (any base
    // station would do the same).
    Aggregate best;
    for (AggregationAgent* agent : aggregation.agents()) {
      if (!views[agent->id().value()]->is_clusterhead()) continue;
      if (!network.node(agent->id()).alive()) continue;
      const Aggregate view = agent->global_view(epoch);
      if (view.count > best.count) best = view;
    }
    const bool alarm = best.max > 30.0;
    std::printf("%-6llu %8llu %8.2f %8.2f %8s %8zu\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(best.count),
                best.average(), best.max, alarm ? "HEAT" : "-",
                scenario.metrics().false_detections());
  }

  const auto detection =
      scenario.metrics().first_detection_since(victim, crashed_at);
  std::printf("\nburned-out sensor %u %s (no dedicated heartbeat frames were"
              " ever sent)\n",
              victim.value(),
              detection ? "was detected by the shared frames" : "NOT detected");
  const auto totals = traffic_totals(network);
  std::printf("total traffic: %llu frames, %llu bytes over 10 epochs\n",
              static_cast<unsigned long long>(totals.frames),
              static_cast<unsigned long long>(totals.bytes));
  return 0;
}
