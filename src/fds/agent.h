// Per-node FDS protocol agent.
//
// Executes the node's part of the three-round service (Section 4.2) every
// heartbeat interval, under whatever role its MembershipView currently
// assigns. The round actions below run on the schedule in fds/timetable.h,
// the one place that pairs each with its offset in Thop.
//
// All frames are emitted onto the promiscuous channel, so digests reach
// deputies, updates reach gateways, and forwarded updates are overheard by
// competing forwarders — the inherent message redundancy the paper exploits.

#pragma once

#include <array>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "cluster/membership.h"
#include "common/flat.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "event/simulator.h"
#include "fds/config.h"
#include "fds/detector.h"
#include "fds/failure_log.h"
#include "fds/messages.h"
#include "net/network.h"
#include "net/node.h"
#include "transport/transport.h"

namespace cfds {

namespace check {
class StateFingerprinter;
}  // namespace check

/// Chains `extra` after an existing std::function-valued hook. Use this
/// instead of plain assignment when several layers observe the same hook
/// (e.g. MetricsCollector + a demo trace): assignment silently disconnects
/// the earlier observer.
template <typename F>
void chain_hook(std::function<F>& slot,
                std::type_identity_t<std::function<F>> extra) {
  if (!slot) {
    slot = std::move(extra);
    return;
  }
  slot = [first = std::move(slot),
          second = std::move(extra)](auto&&... args) {
    first(args...);
    second(std::forward<decltype(args)>(args)...);
  };
}

/// Instrumentation and layering hooks, owned by FdsService and shared by all
/// of its agents. All callbacks are optional.
struct FdsHooks {
  /// A CH/DCH broadcast a health-status update (scheduled, takeover, or
  /// relay). The inter-cluster forwarder uses this to watch the sender's own
  /// emissions, which its radio never hears back.
  std::function<void(NodeId sender, const std::shared_ptr<const HealthUpdatePayload>&)>
      on_update_sent;
  /// A node applied an update it received.
  std::function<void(NodeId node, const HealthUpdatePayload&)> on_update_applied;
  /// A decider (CH, or DCH when `by_deputy`) judged `failed` to have crashed.
  std::function<void(NodeId decider, std::uint64_t epoch,
                     const std::vector<NodeId>& failed, bool by_deputy)>
      on_detection;
  /// A deputy took over from `old_ch`.
  std::function<void(NodeId deputy, NodeId old_ch, std::uint64_t epoch)>
      on_takeover;
};

/// The waiting period a peer with NID `id` and remaining-energy fraction
/// `energy_frac` applies before answering a forwarding request: a unique
/// NID-derived point in (0, Thop), stretched for energy-depleted nodes so
/// well-charged peers answer first (Section 4.2, "Energy Considerations").
[[nodiscard]] SimTime peer_waiting_period(NodeId id, double energy_frac,
                                          SimTime t_hop);

class FdsAgent {
 public:
  /// The agent speaks to the outside world only through `transport` (frames)
  /// and `timers` (clock + cancellable timers): in simulation these are the
  /// node itself and the network's Simulator; in service mode a real
  /// transport and a RealTimeScheduler. `node` supplies identity,
  /// liveness, marked state, and energy — never the radio.
  FdsAgent(Node& node, MembershipView& view, Transport& transport,
           TimerService& timers, SimTime t_hop, const FdsConfig& config,
           FdsHooks& hooks);

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] MembershipView& view() { return view_; }
  [[nodiscard]] const MembershipView& view() const { return view_; }
  [[nodiscard]] FailureLog& log() { return log_; }
  [[nodiscard]] const FailureLog& log() const { return log_; }

  /// True if this node received (or authored) the scheduled health-status
  /// update of the current epoch — the completeness event of Figure 7.
  [[nodiscard]] bool got_scheduled_update() const {
    return got_scheduled_update_;
  }
  [[nodiscard]] std::uint64_t current_epoch() const { return epoch_; }

  /// Lifetime send counters and the pending subscription set — diagnostics
  /// carried by the Snapshot (fds/snapshot.h) for soak post-mortems, never
  /// protocol inputs.
  [[nodiscard]] std::uint64_t heartbeats_sent() const {
    return heartbeats_sent_;
  }
  [[nodiscard]] std::uint64_t unmarked_heartbeats_sent() const {
    return unmarked_sent_;
  }
  [[nodiscard]] std::uint64_t last_unmarked_sent_epoch() const {
    return last_unmarked_epoch_;
  }
  [[nodiscard]] const FlatSet<NodeId>& unmarked_heard() const {
    return unmarked_heard_;
  }

  /// Causes for dropping marked/affiliated state, indexing reverts().
  enum RevertCause : std::uint32_t {
    kRevertMissedUpdates = 0,  ///< kReaffiliateAfterMissed exceeded
    kRevertFreshSelfNews = 1,  ///< an update freshly reported us failed
    kRevertStaleSelfNews = 2,  ///< cumulative failure news still lists us
    kRevertRosterDropped = 3,  ///< the CH's snapshot no longer carries us
    kRevertRivalHead = 4,      ///< lost the lowest-NID head arbitration
  };
  /// Lifetime revert counts by cause, plus when/why the newest one fired —
  /// diagnostics for service-mode post-mortems, never protocol inputs.
  [[nodiscard]] const std::array<std::uint64_t, 5>& reverts() const {
    return reverts_;
  }
  [[nodiscard]] std::uint64_t last_revert_epoch() const {
    return last_revert_epoch_;
  }
  [[nodiscard]] std::uint32_t last_revert_cause() const {
    return last_revert_cause_;
  }

  /// Self-tuning state (FdsConfig::adaptive_enabled): the tune level this
  /// node currently applies (as CH: the level it announces; as member: the
  /// level adopted from the newest scheduled update). 0 when the flag is off.
  [[nodiscard]] std::uint8_t tune_level() const {
    return adaptive_ ? adaptive_->tune_level_ : 0;
  }

  /// Checkpointed-recovery state (FdsConfig::checkpoint_enabled): the
  /// freshest retained checkpoint (CH/DCH only), and whether the last
  /// crash-recovery restored from one instead of cold-rejoining.
  [[nodiscard]] std::shared_ptr<const CheckpointPayload> stable_checkpoint()
      const {
    return checkpoints_ ? checkpoints_->stable_checkpoint_ : nullptr;
  }
  [[nodiscard]] bool restored_from_checkpoint() const {
    return checkpoints_ && checkpoints_->restored_from_checkpoint_;
  }

  // --- Round actions, run on the timetable (fds/timetable.h) ------------
  void begin_epoch(std::uint64_t epoch);
  void round1_heartbeat();
  void round2_digest();
  void round3_update();
  /// Arms this node's CH-failure evaluation: rank-0 deputies decide
  /// immediately, rank-k deputies stand by k further Thop (feature F2's
  /// ranked redundancy — a lower deputy acts only if everyone above it,
  /// including the CH, stays silent).
  void deputy_check();
  void completeness_check();

  /// Announces a voluntary departure (group-membership unsubscription) and
  /// leaves the cluster: the CH removes this node as `departed` — not
  /// failed — and the node stops participating (no heartbeats, digests or
  /// requests) until rejoin() is called.
  void announce_leave();
  /// Re-enters the group after announce_leave(): the next heartbeat is
  /// unmarked and acts as a fresh subscription (F5).
  void rejoin();
  [[nodiscard]] bool has_left() const { return left_; }

  /// Announces a sleep window covering the next `epochs` executions and
  /// powers the radio down. The harness (or application) is responsible for
  /// calling wake_up() when the window ends. Section 6 extension.
  void announce_sleep(std::uint32_t epochs);
  /// Powers the radio back up after a sleep window.
  void wake_up();

  /// Called by the inter-cluster layer when, as a CH, this node learns
  /// failures from another cluster's report: filters genuinely new NIDs,
  /// records them, and broadcasts a relay update that both informs the local
  /// cluster and serves as the implicit acknowledgement of Section 4.3.
  /// `ack` is the report id being acknowledged; `learned_from` the cluster
  /// the report came from (for gateway back-forwarding suppression).
  void broadcast_relay(const std::vector<NodeId>& reported_failed,
                       ReportId ack, ClusterId learned_from);

 private:
  /// The model checker's canonical serializer reads the private protocol
  /// state directly. Every member declared below must be mixed or
  /// FP-EXEMPT'd in src/check/fingerprint.cpp (cfds-lint rule
  /// state-outside-fingerprint enforces this).
  friend class check::StateFingerprinter;

  // --- Opt-in blocks ----------------------------------------------------
  // The state of three extensions beyond Section 4.2, each allocated by the
  // constructor only when its FdsConfig flag is on: a non-null block means
  // the flag is on. Crash-recovery (recovery_enabled) has no state of its
  // own and stays a config_ branch.

  /// Self-tuning accrual detection (adaptive_enabled, docs/ADAPTIVE.md).
  struct Adaptive {
    /// Ramps the tune level one step toward the band of the worst
    /// per-member loss estimate and writes the announcement into `update`
    /// (CH, R-3): members adopt the level directly, so a member and its CH
    /// never disagree by more than one level even across a lost update.
    void announce(HealthUpdatePayload& update);
    /// The takeover gate: suspicion of `ch` accrued over past executions,
    /// plus this execution's still-unrecorded miss, reaches `threshold`.
    [[nodiscard]] bool clears_gate(NodeId ch, std::uint32_t threshold) const {
      return estimator_.pending_suspicion_milli(ch) >= threshold;
    }
    void reset() {
      estimator_.clear();
      tune_level_ = 0;
    }

    // LINT-FINGERPRINT: members below must be covered (mixed or FP-EXEMPT'd)
    /// As CH the estimator tracks every expected member; as a member it
    /// tracks the CH (via scheduled-update arrival), feeding the deputy's
    /// accrual gate on takeover.
    LinkQualityEstimator estimator_;
    std::uint8_t tune_level_ = 0;
  };

  /// Checkpointed CH/DCH recovery (checkpoint_enabled). stable_checkpoint_
  /// models stable storage: on_lifecycle deliberately keeps it, so it
  /// survives this node's own crash.
  struct Checkpoints {
    // LINT-FINGERPRINT: members below must be covered (mixed or FP-EXEMPT'd)
    std::shared_ptr<const CheckpointPayload> stable_checkpoint_;
    std::uint64_t checkpoint_seq_ = 0;
    bool restored_from_checkpoint_ = false;
  };

  /// Soft epoch boundaries (tolerate_epoch_skew): arrival stamps for the
  /// round evidence, so begin_epoch ages evidence out instead of wiping it.
  struct SkewTolerance {
    /// Drops heartbeat and digest evidence stamped before `cutoff`, and the
    /// CH-update flag.
    void prune(RoundEvidence& evidence, SimTime cutoff);

    // LINT-FINGERPRINT: members below must be covered (mixed or FP-EXEMPT'd)
    FlatMap<NodeId, SimTime> heartbeat_seen_;
    FlatMap<NodeId, SimTime> digest_seen_;
  };

  void on_frame(const Reception& reception);
  void on_lifecycle(bool alive);
  void evaluate_ch_failure();
  void handle_update(const std::shared_ptr<const HealthUpdatePayload>& update);
  /// Applies the update's failure news. Returns the cause to step down for,
  /// if any: fresh news about this node under tolerate_epoch_skew, or stale
  /// news while it believed it was a marked participant (crash-recovery
  /// reconciliation).
  [[nodiscard]] std::optional<RevertCause> apply_failures(
      const HealthUpdatePayload& update);
  /// Drops this node's cluster for `cause`: clears the view and the marked
  /// flag, resets the adaptive block, the missed-update counter and this
  /// execution's scheduled update, so the next heartbeat re-subscribes
  /// (F5). `applied`, when given, is the update that forced it, reported to
  /// on_update_applied.
  void step_down(RevertCause cause,
                 const HealthUpdatePayload* applied = nullptr);
  /// Bumps the revert diagnostics (see RevertCause / reverts()).
  void count_revert(RevertCause cause);
  /// Records a sign of life from `sender` in this round's evidence,
  /// stamping its arrival time under tolerate_epoch_skew.
  void note_alive(NodeId sender);
  void schedule_peer_forward(NodeId target);
  void broadcast_update(std::shared_ptr<HealthUpdatePayload> update);
  [[nodiscard]] ReportId fresh_report_id();
  [[nodiscard]] double energy_fraction() const;
  /// CH only: broadcasts (and retains) a minimum-process cluster-state
  /// checkpoint — roster, deputies, failure log.
  void emit_checkpoint();
  /// Retains `cp` if this node is a holder (CH/DCH of that cluster) and the
  /// checkpoint is fresher than the one already stored.
  void handle_checkpoint(const std::shared_ptr<const CheckpointPayload>& cp);
  /// Crash-recovery entry: if the stored checkpoint names this node as CH
  /// or deputy, reinstall the checkpointed view and failure log so the node
  /// reconciles with the live cluster instead of cold-rejoining.
  void restore_from_checkpoint();

  Node& node_;
  MembershipView& view_;
  Transport& transport_;
  TimerService& timers_;
  SimTime t_hop_;
  const FdsConfig& config_;
  FdsHooks& hooks_;
  FailureLog log_;

  std::uint64_t epoch_ = 0;
  std::uint64_t report_counter_ = 0;

  /// Announced sleep windows: node -> executions it may still sit out
  /// (consumed by this node's own detection decisions).
  FlatMap<NodeId, std::uint32_t> sleep_exemptions_;
  /// Voluntary departures heard this epoch (consumed by the CH's update).
  FlatSet<NodeId> leaves_heard_;
  /// Notices overheard this execution, for relaying in our digest.
  FlatMap<NodeId, std::uint32_t> notices_heard_;
  /// Consecutive executions whose scheduled update never arrived.
  std::uint32_t missed_updates_ = 0;
  /// Diagnostics only (see accessors above).
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t unmarked_sent_ = 0;
  std::uint64_t last_unmarked_epoch_ = 0;
  std::array<std::uint64_t, 5> reverts_{};
  std::uint64_t last_revert_epoch_ = 0;
  std::uint32_t last_revert_cause_ = 0;
  /// Voluntarily departed (announce_leave) and not yet rejoined.
  bool left_ = false;

  // Per-epoch evidence and peer-forwarding state. Flat containers: cleared
  // (buffer retained) every epoch, so steady-state rounds do not allocate.
  RoundEvidence evidence_;
  FlatSet<NodeId> unmarked_heard_;
  bool got_scheduled_update_ = false;
  std::shared_ptr<const HealthUpdatePayload> scheduled_update_;
  FlatSet<NodeId> acked_requesters_;
  FlatMap<NodeId, TimerHandle> pending_forwards_;
  /// Armed by deputy_check for rank > 0 deputies; stored so a crash can
  /// cancel it — a dead node must never fire a round callback.
  TimerHandle deputy_timer_;
  bool sent_ack_ = false;

  std::unique_ptr<Adaptive> adaptive_;
  std::unique_ptr<Checkpoints> checkpoints_;
  std::unique_ptr<SkewTolerance> skew_;

  /// Send-side payload pools: each round's emission reuses the previous
  /// epoch's payload object when every receiver has released it
  /// (use_count() == 1 — receivers drop their references at the next
  /// begin_epoch, before the author's next emission). A reference retained
  /// longer (a stashed forward, an in-flight frame, a recording hook)
  /// safely forces a fresh allocation instead. Every field is overwritten
  /// before each send, so pooled payloads are never protocol inputs.
  std::shared_ptr<HeartbeatPayload> heartbeat_pool_;
  std::shared_ptr<DigestPayload> digest_pool_;
  std::shared_ptr<HealthUpdatePayload> update_pool_;
  /// Scratch for round3's sleep-exemption filtering (buffer reused).
  std::vector<NodeId> expected_scratch_;
};

// Fingerprint tripwire (src/check/fingerprint.h): a layout change means a
// state member was added, removed, or resized. Mix the new member in
// src/check/fingerprint.cpp — or FP-EXEMPT it there with a reason — then
// update the expected size. The gate pins the one ABI the assert's constant
// is computed for; other platforms rely on the lint rule alone.
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBCXX__) && \
    !defined(_GLIBCXX_DEBUG)
static_assert(sizeof(FdsAgent) == 584,
              "FdsAgent layout changed: update src/check/fingerprint.cpp "
              "(mix or FP-EXEMPT the new member), then this tripwire");
#endif

/// Owns the per-node agents and drives synchronized FDS executions.
class FdsService {
 public:
  /// `views[i]` must be the membership view of the node with NID i; it may
  /// be owned by a FormationAgent (distributed path) or by the caller
  /// (directory-installed path).
  FdsService(Network& network, std::vector<MembershipView*> views,
             FdsConfig config);

  [[nodiscard]] FdsHooks& hooks() { return hooks_; }
  [[nodiscard]] FdsConfig& config() { return config_; }
  [[nodiscard]] std::vector<FdsAgent*> agents();
  [[nodiscard]] FdsAgent& agent_for(NodeId id);

  /// Number of agents the unskewed path's round actions visit: exactly the
  /// alive nodes. Exposed for the O(active) regression bench.
  [[nodiscard]] std::size_t active_agents() const { return active_.size(); }

  /// Wires a node added after construction (replenishment, Section 2.1)
  /// into the service. The node participates from the next scheduled
  /// execution; if unmarked, its heartbeat subscribes it to a cluster (F5).
  FdsAgent& adopt_node(Node& node, MembershipView& view);

  /// Schedules one FDS execution with epoch index `epoch` starting at `t`:
  /// the timetable once for every agent, or once per agent at its own phase
  /// when max_clock_skew or a skew provider skews the clocks.
  void schedule_epoch(std::uint64_t epoch, SimTime t);

  /// Schedules `count` executions phi apart starting at `start` and runs the
  /// simulator past the last one. Returns the end time.
  SimTime run_epochs(std::uint64_t count, SimTime start);

  /// Per-node additional clock skew, queried once per (node, epoch) when
  /// scheduling that node's rounds. Used by the fault injector's
  /// ClockDriftRamp; nullptr (the default) keeps the unskewed path, so
  /// fault-free runs schedule exactly as before.
  using SkewProvider = std::function<SimTime(NodeId, std::uint64_t epoch)>;
  void set_skew_provider(SkewProvider provider) {
    skew_provider_ = std::move(provider);
  }

 private:
  /// Registers the lifecycle handler that keeps `active_` in sync for the
  /// agent at `idx` (slot order == NID order == agents_ order).
  void watch_lifecycle(Node& node, std::size_t idx);

  Network& network_;
  FdsConfig config_;
  FdsHooks hooks_;
  SkewProvider skew_provider_;
  std::vector<std::unique_ptr<FdsAgent>> agents_;

  /// Unskewed-path bookkeeping: the round actions visit only `active_`
  /// (agents_ indices of alive nodes, ascending = NID order), so a mostly
  /// idle world pays per round for its alive population, not its size.
  /// Dead agents' round actions are all no-ops (every one starts with an
  /// alive check), so skipping them changes no observable behaviour; only
  /// begin_epoch, once per execution, reaches every agent.
  std::vector<std::uint32_t> active_;
};

}  // namespace cfds
