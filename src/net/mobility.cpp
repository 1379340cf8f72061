#include "net/mobility.h"

#include <cmath>

#include "common/expect.h"

namespace cfds {

namespace {

/// Position-update granularity.
constexpr SimTime kTick = SimTime::millis(500);

}  // namespace

RandomWaypointMobility::RandomWaypointMobility(Network& network,
                                               WaypointConfig config, Rng rng)
    : network_(network), config_(config), rng_(rng) {
  CFDS_EXPECT(config_.min_speed_mps > 0.0 &&
                  config_.max_speed_mps >= config_.min_speed_mps,
              "invalid speed range");
}

void RandomWaypointMobility::retarget(std::size_t i, Vec2 from) {
  (void)from;
  trajectories_[i].target = {rng_.uniform(0.0, config_.width),
                             rng_.uniform(0.0, config_.height)};
  trajectories_[i].speed_mps =
      rng_.uniform(config_.min_speed_mps, config_.max_speed_mps);
}

void RandomWaypointMobility::tick() {
  const auto& nodes = network_.nodes();
  // Lazily extend trajectories for replenished nodes.
  while (trajectories_.size() < nodes.size()) {
    trajectories_.push_back({});
    retarget(trajectories_.size() - 1,
             nodes[trajectories_.size() - 1]->position());
  }
  const SimTime now = network_.simulator().now();
  const double dt = kTick.as_seconds();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Node& node = *nodes[i];
    if (!node.alive()) continue;  // crashed hosts stay where they fell
    Trajectory& trajectory = trajectories_[i];
    if (now < trajectory.pause_until) continue;

    const Vec2 position = node.position();
    const Vec2 to_target = trajectory.target - position;
    const double remaining = to_target.norm();
    const double step = trajectory.speed_mps * dt;
    if (remaining <= step || remaining == 0.0) {
      node.radio().set_position(trajectory.target);
      travelled_ += remaining;
      trajectory.pause_until = now + config_.pause;
      retarget(i, trajectory.target);
    } else {
      const Vec2 moved = position + (step / remaining) * to_target;
      node.radio().set_position(moved);
      travelled_ += step;
    }
  }
}

void RandomWaypointMobility::run(SimTime from, SimTime until) {
  Simulator& sim = network_.simulator();
  for (SimTime t = from; t <= until; t += kTick) {
    if (t < sim.now()) continue;
    sim.schedule_at(t, [this] { tick(); });
  }
}

}  // namespace cfds
