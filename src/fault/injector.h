// Applies a FaultPlan to a running Scenario.
//
// The injector is the simulator's binding of the plan runtime
// (fault/plan_runtime.h): the runtime works over the channel's DropFilter
// and the network's simulator as its timer service, crashes and recovers
// nodes through Network, drives the channel's loss override, and feeds the
// FdsService skew provider. Everything is scheduled up front (install),
// anchored at the scenario's next epoch boundary, so a plan replays
// identically whenever the scenario it is applied to is identical.
//
// The injector must outlive the simulation run: scheduled events and the
// skew provider capture it.

#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "fault/fault_plan.h"
#include "fault/plan_runtime.h"
#include "sim/scenario.h"

namespace cfds::fault {

class FaultInjector {
 public:
  explicit FaultInjector(Scenario& scenario);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event of `plan`, anchored at the scenario's next epoch
  /// start (event at_us = 0 fires exactly when the next execution begins).
  /// May be called once per injector.
  void install(const FaultPlan& plan);

  /// Defensively clears any channel fault still active (mutes, blocked
  /// links, jam regions, the loss override); see PlanRuntime::clear.
  void clear_channel_faults() { runtime_.clear(); }

  /// Anchor epoch index: plan drift epochs are relative to this.
  [[nodiscard]] std::uint64_t base_epoch() const { return base_epoch_; }

 private:
  Scenario& scenario_;
  SimTime anchor_;
  std::uint64_t base_epoch_;
  PlanRuntime runtime_;
};

}  // namespace cfds::fault
