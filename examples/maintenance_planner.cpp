// Maintenance planning from FDS telemetry.
//
// Section 1: health information "would aid in maintenance scheduling for the
// deployment of additional resources to the field", while "excessive false
// detections will increase maintenance cost significantly and unnecessarily"
// (Section 2.1). This example turns the FDS's failure stream into the two
// numbers a maintenance planner needs —
//   * estimated attrition rate (failures per hour, from detection
//     timestamps), and
//   * projected time until the population crosses the capacity floor —
// and compares the cost of acting on FDS reports against acting on ground
// truth: every false detection is a wasted replacement unit.

#include <cstdio>
#include <vector>

#include "sim/scenario.h"

int main() {
  using namespace cfds;

  ScenarioConfig config;
  config.width = 650.0;
  config.height = 420.0;
  config.node_count = 450;
  config.loss_p = 0.25;  // rough conditions: loss high enough to test accuracy
  config.fds.heartbeat_interval = SimTime::seconds(2);
  config.seed = 555;

  Scenario scenario(config);
  scenario.setup();
  std::printf("deployment: %zu nodes, %zu clusters, p=%.2f\n\n",
              config.node_count, scenario.cluster_count(), config.loss_p);

  // A steady attrition process: one failure roughly every 1.7 epochs.
  Rng attrition(31337);
  std::vector<std::pair<NodeId, SimTime>> casualties;

  const int kEpochs = 24;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    if (attrition.below(5) < 3) {
      const std::vector<NodeId> candidates = scenario.alive_ordinary_members();
      if (!candidates.empty()) {
        const NodeId victim = candidates[attrition.below(candidates.size())];
        scenario.network().crash(victim);
        casualties.emplace_back(victim,
                                scenario.network().simulator().now());
      }
    }
    scenario.run_epochs(1);
  }

  // --- Planner inputs derived purely from FDS telemetry ---------------
  const auto& detections = scenario.metrics().detections();
  std::size_t reported_failures = 0;
  double latency_sum = 0.0;
  std::size_t latency_samples = 0;
  for (const auto& [victim, when] : casualties) {
    if (const auto d = scenario.metrics().first_detection_since(victim, when)) {
      ++reported_failures;
      latency_sum += (d->when - when).as_seconds();
      ++latency_samples;
    }
  }
  const double horizon_hours =
      scenario.network().simulator().now().as_seconds() / 3600.0;
  const double rate_per_hour = double(reported_failures) / horizon_hours;
  const std::size_t alive_reported =
      config.node_count - reported_failures;
  const std::size_t capacity_floor = 400;
  const double hours_to_floor =
      rate_per_hour > 0.0
          ? double(alive_reported - capacity_floor) / rate_per_hour
          : -1.0;

  std::printf("planner inputs (from FDS reports only):\n");
  std::printf("  reported failures:        %zu\n", reported_failures);
  std::printf("  mean detection latency:   %.1f s\n",
              latency_samples ? latency_sum / double(latency_samples) : 0.0);
  std::printf("  estimated attrition rate: %.1f nodes/hour\n", rate_per_hour);
  std::printf("  reported population:      %zu (floor %zu)\n", alive_reported,
              capacity_floor);
  if (hours_to_floor >= 0.0) {
    std::printf("  projected floor breach:   in %.2f hours -> schedule a"
                " resupply mission\n",
                hours_to_floor);
  }

  // --- Cost of errors ---------------------------------------------------
  const std::size_t false_detections = scenario.metrics().false_detections();
  std::printf("\nerror costs:\n");
  std::printf("  actual casualties:   %zu\n", casualties.size());
  std::printf("  missed (backlog):    %zu\n",
              casualties.size() - reported_failures);
  std::printf("  false detections:    %zu  (each one = a replacement unit"
              " shipped for a healthy node)\n",
              false_detections);
  std::printf("  detection decisions: %zu\n", detections.size());

  const double waste_ratio =
      detections.empty()
          ? 0.0
          : double(false_detections) / double(detections.size());
  std::printf("\nwith the paper's redundancy-exploiting rule, %.1f%% of"
              " maintenance actions would be wasted at p=%.2f.\n",
              100.0 * waste_ratio, config.loss_p);
  std::printf("(for contrast, a heartbeat-only detector false-suspects each"
              " member with probability p=%.2f every epoch — thousands of"
              " phantom casualties over this window.)\n",
              config.loss_p);
  return 0;
}
