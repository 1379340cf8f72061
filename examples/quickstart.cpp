// Quickstart: stand up a small ad hoc deployment, crash a node, and watch
// the cluster-based failure detection service find it and tell everyone.
//
//   $ ./quickstart
//
// Walks through the minimal public API: ScenarioConfig -> Scenario ->
// setup() -> crash -> run_epochs() -> metrics.

#include <cstdio>

#include "sim/scenario.h"

int main() {
  using namespace cfds;

  // 1. Describe the deployment: 300 hosts on a 600 x 400 m field, 100 m
  //    radios, 10% frame loss, one FDS execution every 2 s.
  ScenarioConfig config;
  config.width = 600.0;
  config.height = 400.0;
  config.node_count = 300;
  config.range = 100.0;
  config.loss_p = 0.10;
  config.fds.heartbeat_interval = SimTime::seconds(2);
  config.seed = 2026;

  // 2. Deploy: places the nodes and forms the cluster hierarchy
  //    (clusterheads, deputies, gateways, backup gateways).
  Scenario scenario(config);
  scenario.setup();
  std::printf("deployed %zu nodes into %zu clusters (%.0f%% affiliated)\n",
              config.node_count, scenario.cluster_count(),
              100.0 * scenario.affiliation_rate());

  // 3. Let the service run one quiet execution.
  scenario.run_epochs(1);
  std::printf("epoch 0: %zu detections (expected: 0)\n",
              scenario.metrics().detections().size());

  // 4. Kill a node between executions (fail-stop).
  const NodeId victim = scenario.alive_ordinary_members().front();
  const SimTime crash_time = scenario.network().simulator().now();
  scenario.network().crash(victim);
  std::printf("\n*** node %u crashes at t=%.1fs ***\n\n", victim.value(),
              crash_time.as_seconds());

  // 5. The next execution detects it; the following ones spread the news
  //    across the backbone.
  scenario.run_epochs(3);

  const auto detection =
      scenario.metrics().first_detection_since(victim, crash_time);
  if (detection) {
    std::printf("detected by node %u in epoch %llu, %.1fs after the crash\n",
                detection->decider.value(),
                static_cast<unsigned long long>(detection->epoch),
                (detection->when - crash_time).as_seconds());
  } else {
    std::printf("NOT detected (unexpected)\n");
  }
  std::printf("completeness: %.1f%% of operational nodes know\n",
              100.0 * knowledge_coverage(scenario.fds(), scenario.network(),
                                         victim));
  std::printf("accuracy:     %zu false detections so far\n",
              scenario.metrics().false_detections());

  const auto traffic = traffic_totals(scenario.network());
  std::printf("\ntotal radio traffic: %llu frames, %llu bytes"
              " (%.1f B/node/epoch)\n",
              static_cast<unsigned long long>(traffic.frames),
              static_cast<unsigned long long>(traffic.bytes),
              double(traffic.bytes) / double(config.node_count) / 4.0);
  return 0;
}
