// Instrumentation for FDS experiments: detection events with ground truth,
// and completeness/latency queries.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "fds/agent.h"
#include "net/network.h"

namespace cfds {

/// One failure-detection decision, stamped with ground truth at the moment
/// of the decision.
struct DetectionEvent {
  NodeId decider;
  NodeId suspect;
  std::uint64_t epoch = 0;
  SimTime when;
  bool by_deputy = false;
  /// Ground truth: the suspect was actually alive (a false detection — the
  /// accuracy violation of Section 4.1).
  bool suspect_was_alive = false;
};

/// Hooks into an FdsService and accumulates detection events.
class MetricsCollector {
 public:
  /// Chains onto the service's on_detection hook. Call before running.
  void attach(FdsService& fds, Network& network);

  [[nodiscard]] const std::vector<DetectionEvent>& detections() const {
    return detections_;
  }

  [[nodiscard]] std::size_t false_detections() const;
  [[nodiscard]] std::size_t true_detections() const;

  /// Earliest detection of `suspect` by anyone, if any.
  [[nodiscard]] std::optional<DetectionEvent> first_detection(
      NodeId suspect) const {
    return first_detection_since(suspect, SimTime::zero());
  }

  /// Earliest detection of `suspect` at or after `since` (its crash time),
  /// if any: the detection a crash latency is measured to. A false
  /// detection of the node from before its crash does not count.
  [[nodiscard]] std::optional<DetectionEvent> first_detection_since(
      NodeId suspect, SimTime since) const;

  void clear() { detections_.clear(); }

 private:
  std::vector<DetectionEvent> detections_;
};

/// Fraction of operational, cluster-affiliated nodes (other than `failed`)
/// whose failure log knows about `failed` — the system-level completeness
/// measure ("every node failure will be reported to every operational
/// node"). Returns 1.0 when there is no eligible observer.
[[nodiscard]] double knowledge_coverage(FdsService& fds, Network& network,
                                        NodeId failed);

/// Total frames and bytes transmitted across the network so far.
struct TrafficTotals {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] TrafficTotals traffic_totals(const Network& network);

}  // namespace cfds
