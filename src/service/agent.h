// One service-mode endpoint: a node plus its FDS agent, driven by real
// timers over a real transport.
//
// ServiceAgent is the composition root cfds_serve (one per process) and the
// loopback soak harness (one per thread) share. It owns the node, the
// directory-installed membership view, the fault DropFilter with its
// FilteredTransport wrapper, the FdsAgent, and the PlanRuntime. It drives
// the round timetable (fds/timetable.h) for its one agent: every configured
// epoch is scheduled up front on the endpoint's TimerService at the
// endpoint's own phase, offset per-epoch by the plan's clock drift.

#pragma once

#include <cstdint>
#include <map>

#include "cluster/membership.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "event/simulator.h"
#include "fault/fault_plan.h"
#include "fault/plan_runtime.h"
#include "fds/agent.h"
#include "fds/config.h"
#include "fds/snapshot.h"
#include "net/node.h"
#include "service/config.h"
#include "transport/drop_filter.h"
#include "transport/filtered_transport.h"
#include "transport/transport.h"

namespace cfds::service {

class ServiceAgent {
 public:
  /// `raw` is the endpoint's real transport (UDP or loopback); the agent
  /// interposes its FilteredTransport between it and the FdsAgent. Both
  /// `raw` and `timers` must outlive the agent.
  ServiceAgent(const ServiceConfig& config, NodeId self, Transport& raw,
               TimerService& timers);

  ServiceAgent(const ServiceAgent&) = delete;
  ServiceAgent& operator=(const ServiceAgent&) = delete;

  /// Schedules every configured epoch starting at absolute time `start`
  /// (epoch k runs at start + k*phi, plus any plan clock drift for this
  /// endpoint). `plan` (may be nullptr) is anchored at the start of epoch
  /// `config.warmup_epochs` and must outlive the run.
  void start(SimTime start, const fault::FaultPlan* plan);

  /// True once the interval of the last scheduled epoch has elapsed (set
  /// by a timer, so it is accurate after the owning loop's run_due()).
  [[nodiscard]] bool done() const { return done_; }

  /// The endpoint's Snapshot, service diagnostics included, for the status
  /// JSONL.
  [[nodiscard]] Snapshot status() const;

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] FdsAgent& fds() { return fds_; }
  /// Instrumentation hooks observed by the FDS agent (reference-bound at
  /// construction, so callbacks installed here take effect immediately).
  [[nodiscard]] FdsHooks& hooks() { return hooks_; }
  [[nodiscard]] Node& node() { return node_; }
  [[nodiscard]] DropFilter& filter() { return filter_; }

 private:
  static Vec2 position_thunk(void* ctx, NodeId id);
  static bool admit_thunk(void* ctx, NodeId subscriber);
  static void overhear_thunk(void* ctx, const Reception& reception);

  /// True when an acting head for directory block `block` has been overheard
  /// within the last two epochs (its scheduled updates reach everyone in the
  /// broadcast domain).
  [[nodiscard]] bool block_head_alive(std::uint32_t block) const;

  /// Tracks consecutive-epoch subscription streaks (unmarked heartbeats)
  /// per sender; a marked heartbeat ends the sender's streak.
  void note_subscription(NodeId sender, bool subscribing);

  ServiceConfig config_;
  /// Single-slot backing store for this endpoint's Node view.
  NodeStore store_;
  Node node_;
  MembershipView view_;
  DropFilter filter_;
  FilteredTransport filtered_;
  FdsConfig fds_config_;
  FdsHooks hooks_;
  FdsAgent fds_;
  fault::PlanRuntime plan_;
  TimerService& timers_;
  bool done_ = false;
  /// Newest epoch carried by an overheard health update, per directory block
  /// index — the passive acting-head liveness signal behind orphan adoption.
  std::map<std::uint32_t, std::uint64_t> block_head_epoch_;
  /// Per-subscriber {first, last} epoch of the current unbroken run of
  /// unmarked heartbeats — the home-head priority window behind adoption.
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> sub_streak_;
  /// Receive-side diagnostics for the status Snapshot (see fds/snapshot.h).
  std::uint64_t updates_overheard_ = 0;
  std::uint64_t admit_offers_ = 0;
  std::uint64_t last_offer_epoch_ = 0;
  /// Per-detection latency sampling: absolute crash instant per planned
  /// victim (from the installed FaultPlan), and the latency in ms from that
  /// instant until THIS endpoint first judged the victim failed (the
  /// on_detection hook — deciders only). The soak harness takes the min
  /// across endpoints per victim, which is the deployment's first verdict.
  std::map<std::uint32_t, SimTime> crash_at_;
  std::map<std::uint32_t, std::uint32_t> detect_ms_;
};

}  // namespace cfds::service
