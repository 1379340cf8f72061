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
#include <memory>

#include "aggregation/service.h"
#include "cluster/directory.h"
#include "net/topology.h"
#include "sim/metrics.h"

int main() {
  using namespace cfds;

  constexpr std::size_t kNodes = 350;
  constexpr double kWidth = 600.0;
  constexpr double kHeight = 400.0;

  NetworkConfig net_config;
  net_config.seed = 808;
  Network network(net_config, std::make_unique<BernoulliLoss>(0.1));
  Rng placement(808);
  const auto positions = uniform_rect(kNodes, kWidth, kHeight, placement);
  network.add_nodes(positions);
  const auto directory = ClusterDirectory::build(positions, 100.0);

  std::vector<std::unique_ptr<MembershipView>> views;
  std::vector<MembershipView*> ptrs;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    views.push_back(std::make_unique<MembershipView>(NodeId{i}));
    ptrs.push_back(views.back().get());
  }
  directory.install(network, ptrs);

  FdsConfig fds_config;
  fds_config.heartbeat_interval = SimTime::seconds(2);
  fds_config.external_heartbeats = true;  // measurements ARE heartbeats
  FdsService fds(network, ptrs, fds_config);
  MetricsCollector metrics;
  metrics.attach(fds, network);

  // Temperature field: ambient 18C; from epoch 4, a hot spot grows around
  // the north-east corner.
  bool heat_event = false;
  AggregationService aggregation(
      network, fds, ptrs, [&](NodeId node, std::uint64_t) {
        const Vec2 pos = network.node(node).position();
        double temperature = 18.0 + 0.01 * pos.y;
        if (heat_event) {
          const double d = distance(pos, {kWidth, kHeight});
          temperature += 25.0 * std::exp(-d / 120.0);
        }
        return temperature;
      });

  std::printf("field up: %zu sensors, %zu clusters; measurements double as"
              " heartbeats\n\n",
              kNodes, directory.clusters().size());
  std::printf("%-6s %8s %8s %8s %8s %8s\n", "epoch", "sensors", "avg C",
              "max C", "alarms", "false+");

  NodeId victim = NodeId::invalid();
  for (const ClusterView& cluster : directory.clusters()) {
    if (!cluster.members.empty()) victim = cluster.members.back();
  }
  SimTime crashed_at = SimTime::zero();

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
    aggregation.schedule_epoch(epoch,
                               SimTime::seconds(2 * std::int64_t(epoch)));
    network.simulator().run_until(
        SimTime::seconds(2 * std::int64_t(epoch + 1)));

    // Read the global view at the best-informed clusterhead (any base
    // station would do the same).
    Aggregate best;
    for (AggregationAgent* agent : aggregation.agents()) {
      if (!ptrs[agent->id().value()]->is_clusterhead()) continue;
      if (!network.node(agent->id()).alive()) continue;
      const Aggregate view = agent->global_view(epoch);
      if (view.count > best.count) best = view;
    }
    const bool alarm = best.max > 30.0;
    std::printf("%-6llu %8llu %8.2f %8.2f %8s %8zu\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(best.count),
                best.average(), best.max, alarm ? "HEAT" : "-",
                metrics.false_detections());
  }

  const auto detection = metrics.first_detection_since(victim, crashed_at);
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
