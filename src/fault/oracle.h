// Post-execution invariant oracle for chaos campaigns.
//
// After a chaos trial's quiescence phase (all fault windows closed, links
// perfect for several executions) the deployment must have reconverged. The
// oracle snapshots every node with its position and runs the one invariant
// library, check_invariants (fds/snapshot.h: I1-I5 plus the view checks
// I-V1/I-V6/I-V7), with geometric reach: two nodes reach each other when
// they are within channel range. That scopes the checks to what the protocol
// can guarantee — a cluster split into disconnected components may keep one
// head per component, and a node with no acting head in range may stay
// unaffiliated. The table is in docs/FAULTS.md.

#pragma once

#include <vector>

#include "fds/snapshot.h"
#include "sim/scenario.h"

namespace cfds::fault {

class ChaosOracle {
 public:
  /// Snapshots every node of the deployment into `snapshots` (one per
  /// node, with its position) and checks the invariants against them. Empty
  /// means all invariants hold.
  [[nodiscard]] static std::vector<InvariantViolation> check(
      Scenario& scenario, std::vector<Snapshot>& snapshots);

  [[nodiscard]] static std::vector<InvariantViolation> check(
      Scenario& scenario) {
    std::vector<Snapshot> snapshots;
    return check(scenario, snapshots);
  }
};

}  // namespace cfds::fault
