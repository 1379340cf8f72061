// Runs a FaultPlan against one deployment's fault state.
//
// The simulator (FaultInjector over a Scenario) and a service endpoint
// (ServiceAgent) apply a plan through this one runtime. It schedules every
// event on a TimerService, anchored at the fault phase's start, in plan
// order (a window's open, then its close), and keeps the window state both
// deployments share:
//
//   freeze       mutes the node in the DropFilter; overlapping windows nest,
//                so the node stays muted until the last one closes
//   link_down    blocks the link {node, peer}, nested the same way
//   jam          adds a jam disk; each window removes the disk it added
//   loss         engages the loss override at `x`; overlapping bursts nest,
//                the newest probability wins, and the override clears when
//                the last window closes
//   clock_drift  recorded; skew(node, epoch) sums the ramps active then
//
// The deployments differ in two actions only, the PlanSeam: node lifecycle
// (crash/recover) and the channel-wide loss override. In service mode every
// endpoint loads the same plan and applies the windows to its own
// DropFilter (receivers drop a muted sender's frames, a muted endpoint drops
// everything inbound), so their net effect equals the simulated channel's.
// The runtime must outlive the events it schedules.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "event/simulator.h"
#include "fault/fault_plan.h"
#include "transport/drop_filter.h"

namespace cfds::fault {

/// The two actions the deployments take differently.
struct PlanSeam {
  /// Crashes (`up` false) or recovers `node`.
  std::function<void(std::uint32_t node, bool up)> lifecycle;
  /// A service endpoint crashes and recovers only itself: crash and recover
  /// events of every other node schedule nothing. Unset in the simulator,
  /// which acts on every node.
  std::optional<std::uint32_t> self;
  /// Engages the channel-wide loss override at probability `p`, or clears
  /// it (nullopt). Empty where the medium supplies its own loss (service
  /// mode): loss events then schedule nothing.
  std::function<void(std::optional<double> p)> loss;
};

class PlanRuntime {
 public:
  PlanRuntime(DropFilter& filter, TimerService& timers, PlanSeam seam)
      : filter_(filter), timers_(timers), seam_(std::move(seam)) {}

  PlanRuntime(const PlanRuntime&) = delete;
  PlanRuntime& operator=(const PlanRuntime&) = delete;

  /// Schedules every event of `plan`, anchored at absolute time `anchor`.
  /// Drift epochs count from `base_epoch`. May be called once.
  void install(const FaultPlan& plan, SimTime anchor,
               std::uint64_t base_epoch);

  /// Closes every window still open: mutes, blocked links, jam disks and
  /// the loss override. Well-formed plans close their own windows; this
  /// keeps a chaos quiescence phase fault-free under handcrafted plans
  /// whose windows run past the fault horizon.
  void clear();

  /// True when the installed plan drifts some node's clock.
  [[nodiscard]] bool has_drift() const { return !drifts_.empty(); }

  /// `node`'s clock-drift offset for `epoch`: a linear ramp, one increment
  /// per elapsed epoch of each active drift window, zero outside every
  /// window (the resync the plan format promises).
  [[nodiscard]] SimTime skew(NodeId node, std::uint64_t epoch) const;

 private:
  void freeze(std::uint32_t node, bool on);
  void block_link(std::uint32_t a, std::uint32_t b, bool on);

  DropFilter& filter_;
  TimerService& timers_;
  PlanSeam seam_;
  bool installed_ = false;
  std::uint64_t base_epoch_ = 0;

  // Window depths. Ordered maps: clear() walks them, and the unmute and
  // unblock call order must be replay-stable.
  std::map<std::uint32_t, int> freeze_depth_;
  std::map<std::uint64_t, int> link_depth_;
  /// One slot per jam window of the plan: its DropFilter token while the
  /// disk is up, -1 otherwise.
  std::vector<int> jam_tokens_;
  int loss_depth_ = 0;
  std::vector<FaultEvent> drifts_;
};

}  // namespace cfds::fault
