// The FDS round timetable: one execution of the three-round service
// (Section 4.2) as data, plus the one scheduler that runs it.
//
// Each row fires `hops` Thop after the execution's start T (Thop is the
// one-hop bound of the channel). Everything that runs executions runs these
// rows and nothing else: FdsService (one schedule for every agent, or one
// per agent when clocks are skewed), ServiceAgent (one endpoint at its own
// phase), and CheckWorld (each row at its matching Thop barrier, without a
// timer).

#pragma once

#include <array>
#include <cstdint>

#include "common/sim_time.h"
#include "event/simulator.h"
#include "fds/agent.h"

namespace cfds {

struct RoundRow {
  std::int64_t hops;           ///< offset from the execution start, in Thop
  bool opens_execution;        ///< begin_epoch runs first, on every agent
  void (FdsAgent::*action)();  ///< the round action, on every alive agent
};

inline constexpr std::array<RoundRow, 5> kRoundTimetable = {{
    // fds.R-1: every alive node sends its heartbeat.
    {0, true, &FdsAgent::round1_heartbeat},
    // fds.R-2: members and the CH exchange digests.
    {1, false, &FdsAgent::round2_digest},
    // fds.R-3: the CH runs the detection rule and broadcasts the
    // health-status update.
    {2, false, &FdsAgent::round3_update},
    // The highest-ranked DCH applies the CH-failure rule; on detection it
    // broadcasts a takeover update.
    {3, false, &FdsAgent::deputy_check},
    // Members missing the update broadcast forwarding requests; holders
    // answer after unique waiting periods; the first success is
    // acknowledged and the other candidates stand down.
    {4, false, &FdsAgent::completeness_check},
}};

/// Runs one row of execution `epoch` over an agent set. `agents(fn,
/// everyone)` applies fn(FdsAgent&) to the set in ascending NID order: to
/// every agent when `everyone`, otherwise to at least the alive ones. Round
/// actions are no-ops on a dead agent, so a caller may skip it; begin_epoch
/// is not — it keeps a dead agent's epoch counter current for its recovery.
template <typename Agents>
void run_round_row(const RoundRow& row, std::uint64_t epoch,
                   const Agents& agents) {
  if (row.opens_execution) {
    agents([epoch](FdsAgent& a) { a.begin_epoch(epoch); }, true);
  }
  agents([action = row.action](FdsAgent& a) { (a.*action)(); }, false);
}

/// Schedules every row of execution `epoch` on `timers`: one event per row
/// at `start` + hops * `t_hop`, running the row over `agents` at fire time.
template <typename Agents>
void schedule_execution(TimerService& timers, SimTime start, SimTime t_hop,
                        std::uint64_t epoch, const Agents& agents) {
  for (const RoundRow& row : kRoundTimetable) {
    timers.schedule_at(start + row.hops * t_hop, [&row, epoch, agents] {
      run_round_row(row, epoch, agents);
    });
  }
}

/// The agent set of a single agent that keeps its own phase (a skewed
/// clock, a service endpoint).
[[nodiscard]] inline auto single_agent(FdsAgent& agent) {
  return [a = &agent](auto&& fn, bool /*everyone*/) { fn(*a); };
}

}  // namespace cfds
