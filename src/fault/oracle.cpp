#include "fault/oracle.h"

#include "common/geometry.h"

namespace cfds::fault {

std::vector<InvariantViolation> ChaosOracle::check(
    Scenario& scenario, std::vector<Snapshot>& snapshots) {
  Network& net = scenario.network();
  snapshots.clear();
  for (Node* node : net.nodes()) {
    Snapshot& s = snapshots.emplace_back();
    fill_snapshot(scenario.fds().agent_for(node->id()), *node, s);
    s.position = node->position();
  }
  const double range = net.config().channel.range;
  return check_invariants(snapshots, [range](const Snapshot& a,
                                             const Snapshot& b) {
    return distance(*a.position, *b.position) <= range;
  });
}

}  // namespace cfds::fault
