// Random-waypoint mobility.
//
// The paper's application model (Section 2.1) covers "mobile hosts that have
// localization capability and may migrate in the field autonomously (e.g.,
// nano-sat swarms)"; it defers migration handling but argues that "sound
// clustering algorithms will support cluster and routing stability in mobile
// ad hoc wireless settings [8,9], [so] our failure detection framework can
// be extended accordingly". This module provides the classic random-waypoint
// process to exercise that claim: nodes pick a destination uniformly in the
// field, travel at a uniform speed, pause, and repeat. The mobility studies
// interleave FDS executions with open-ended formation iterations (F4) and
// measure how affiliation and accuracy hold up with speed.

#pragma once

#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "net/network.h"

namespace cfds {

struct WaypointConfig {
  double width = 1000.0;
  double height = 1000.0;
  double min_speed_mps = 0.5;
  double max_speed_mps = 3.0;
  /// Pause at each waypoint before picking the next.
  SimTime pause = SimTime::seconds(2);
};

/// Moves every alive node of a network along independent random-waypoint
/// trajectories. Positions update on a fixed 500 ms tick; crashed nodes
/// freeze.
class RandomWaypointMobility {
 public:
  RandomWaypointMobility(Network& network, WaypointConfig config, Rng rng);

  /// Schedules position updates from `from` until `until` (inclusive of
  /// every tick in between). Call again to extend.
  void run(SimTime from, SimTime until);

  /// Total distance travelled by all nodes so far, in metres.
  [[nodiscard]] double total_distance() const { return travelled_; }

 private:
  struct Trajectory {
    Vec2 target;
    double speed_mps = 0.0;
    SimTime pause_until;
  };

  void tick();
  void retarget(std::size_t i, Vec2 from);

  Network& network_;
  WaypointConfig config_;
  Rng rng_;
  std::vector<Trajectory> trajectories_;
  double travelled_ = 0.0;
};

}  // namespace cfds
