#include "sim/metrics.h"

#include <algorithm>

namespace cfds {

void MetricsCollector::attach(FdsService& fds, Network& network) {
  chain_hook(fds.hooks().on_detection,
             [this, &network](NodeId decider, std::uint64_t epoch,
                              const std::vector<NodeId>& failed,
                              bool by_deputy) {
               for (NodeId suspect : failed) {
                 detections_.push_back(DetectionEvent{
                     decider, suspect, epoch, network.simulator().now(),
                     by_deputy,
                     network.has_node(suspect) &&
                         network.node(suspect).alive()});
               }
             });
}

std::size_t MetricsCollector::false_detections() const {
  return std::size_t(std::count_if(
      detections_.begin(), detections_.end(),
      [](const DetectionEvent& e) { return e.suspect_was_alive; }));
}

std::size_t MetricsCollector::true_detections() const {
  return detections_.size() - false_detections();
}

std::optional<DetectionEvent> MetricsCollector::first_detection_since(
    NodeId suspect, SimTime since) const {
  std::optional<DetectionEvent> best;
  for (const DetectionEvent& e : detections_) {
    if (e.suspect != suspect || e.when < since) continue;
    if (!best || e.when < best->when) best = e;
  }
  return best;
}

double knowledge_coverage(FdsService& fds, Network& network, NodeId failed) {
  std::size_t eligible = 0;
  std::size_t knowing = 0;
  for (FdsAgent* agent : fds.agents()) {
    if (agent->id() == failed) continue;
    if (!network.node(agent->id()).alive()) continue;
    if (!agent->view().affiliated()) continue;
    ++eligible;
    if (agent->log().knows(failed)) ++knowing;
  }
  return eligible == 0 ? 1.0 : double(knowing) / double(eligible);
}

TrafficTotals traffic_totals(const Network& network) {
  TrafficTotals totals;
  for (const Node* node : network.nodes()) {
    totals.frames += node->radio().counters().frames_sent;
    totals.bytes += node->radio().counters().bytes_sent;
  }
  return totals;
}

}  // namespace cfds
