// Bounded protocol worlds for the exhaustive state-space checker.
//
// A CheckWorld is a small cluster (3-6 nodes, one pre-formed cluster with
// CH = NID 0) whose FdsAgents run the REAL protocol code against
// check-owned Transport/TimerService implementations. Instead of a
// stochastic channel, every frame an agent sends is parked in an in-flight
// pool and resolved at the next barrier: a crossing happens every Thop
// (six per FDS execution, one per round offset), and at each crossing the
// world asks its ChoiceSink to decide every open nondeterministic point —
// which in-flight frames are dropped, in what order survivors are
// delivered, and whether a node crashes or recovers. The explorer
// (src/check/explorer.h) enumerates those choice sequences exhaustively
// within budgets; a replay sink pins them to reproduce a counterexample.
//
// Between choices the world checks safety properties:
//
//   I-V1  structural sanity of every alive agent's view (marked implies
//         affiliated, an acting CH is marked, CH not in its own
//         member/deputy lists, deputies are members, no duplicate members,
//         an affiliated node appears in its own roster)
//   I-V2  rival-head arbitration: an acting head that hears a direct
//         same-cluster update from a lower-NID head must not still be head
//         afterwards (delivery obligation)
//   I-V3  no false kill: a decider must not declare a node failed in an
//         epoch in which that node's evidence reached the decider (checked
//         via FdsHooks::on_detection against a world-side delivery log)
//   I-V4  incarnation freshness: a delivered heartbeat carries exactly the
//         sender's world-side recovery count
//   I-V5  checkpoint monotonicity: handling a checkpoint frame never
//         regresses the holder's stored (epoch, seq) (delivery obligation)
//   I-V6  an acting CH's roster and failure log are disjoint
//   I-V7  no node's failure log lists the node itself
//
// I-V1, I-V6 and I-V7 are check_view (fds/snapshot.h), the view-local part of
// the invariant library the chaos oracle and the soak harness also run; the
// table is in docs/FAULTS.md.
//
// plus, at the end of the bounded schedule, a quiescence probe: with all
// nondeterminism forced benign (no faults, no drops, canonical order) the
// cluster must reach a self-consistent steady state — one acting head,
// every alive node marked and in the head's roster, every dead node in the
// head's log and in nobody's roster — within `quiesce_max` executions.
// The probe is what catches "zombie" states where a node believes it is a
// member of a cluster that has moved on without it. Two terminal shapes
// count as quiescent: one acting head with consistent rosters/logs, or a
// COMPLETE dissolution (no head, every alive node unmarked and
// unaffiliated) — the state that hands the cluster back to the formation
// protocol, reachable when the CH crashes and recovers without a
// checkpoint.
//
// After every crossing the world hands the sink a canonical fingerprint of
// the ENTIRE configuration (agents via check/fingerprint.h, in-flight
// pool, pending timers, remaining fault/drop budgets); the sink returns
// false to prune the run when the state was already explored. Budgets are
// part of the fingerprint, so pruning is sound: equal fingerprints have
// identical future choice trees. While the sink reports replaying() (the
// explorer re-executing a recorded prefix, whose crossings it has already
// seen) the world skips the fingerprint.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "event/simulator.h"
#include "fds/agent.h"
#include "fds/config.h"
#include "net/node.h"
#include "transport/transport.h"

namespace cfds::check {

/// World size and the choice budgets that keep the schedule tree finite.
struct CheckOptions {
  std::uint32_t nodes = 3;     ///< cluster population including the CH
  std::uint32_t deputies = 2;  ///< ranked DCHs (NIDs 1..deputies)
  std::uint64_t epochs = 2;    ///< FDS executions driven with open choices
  std::uint32_t max_crashes = 0;
  std::uint32_t max_recoveries = 0;
  std::uint32_t max_drops = 0;
  /// Delivery batches up to this size get a full permutation choice;
  /// larger batches are delivered in canonical (send) order.
  std::uint32_t perm_max = 3;
  bool adaptive = false;    ///< FdsConfig::adaptive_enabled
  bool checkpoint = false;  ///< FdsConfig::checkpoint_enabled
  std::uint32_t checkpoint_interval = 2;
  /// Receiver-major delivery (one interleaving per receiver, never across
  /// receivers). Receivers share no state, so cross-receiver orders are
  /// equivalent up to the next crossing — the checker's partial-order
  /// reduction. Turned off by the DPOR soundness test, which verifies the
  /// reduced and unreduced explorations find the same violations.
  bool reduction = true;
  /// Forced-benign executions granted to reach quiescence after the
  /// bounded schedule; 0 disables the probe.
  std::uint32_t quiesce_max = 8;
  SimTime t_hop = SimTime::millis(100);
};

/// What a choice point decides. The context words (a, b) carried with each
/// choice identify the decision for traces; replay needs only the order.
enum class ChoiceKind : std::uint8_t {
  kFault = 0,  ///< a = crossing ordinal; menu: none | recover(n) | crash(n)
  kDrop = 1,   ///< a = in-flight frame index, b = receiver NID
  kOrder = 2,  ///< a = receiver NID, b = batch size; value = Lehmer rank
};

[[nodiscard]] const char* choice_kind_name(ChoiceKind kind);

/// One resolved decision, as recorded on a counterexample trace.
struct ChoiceRec {
  ChoiceKind kind = ChoiceKind::kFault;
  std::uint32_t count = 0;   ///< branching factor offered
  std::uint32_t chosen = 0;  ///< branch taken, < count
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// A crash/recover the schedule injected. Counterexample traces emit these
/// in FaultPlan JSONL schema so bench_chaos --replay-plan replays them.
struct FaultEvent {
  bool recover = false;  ///< false = crash
  NodeId node;
  std::int64_t at_us = 0;
};

/// A safety-property violation, with enough context to locate the failing
/// crossing in the trace.
struct Violation {
  std::string invariant;  ///< "I-V1".."I-V7", "quiescence"
  std::string detail;
  std::uint64_t epoch = 0;
  std::uint32_t barrier = 0;  ///< crossing index within the epoch, 0..5
};

/// The explorer side of a run: resolves every choice point and learns
/// every crossing's canonical fingerprint.
class ChoiceSink {
 public:
  virtual ~ChoiceSink() = default;

  ChoiceSink(const ChoiceSink&) = delete;
  ChoiceSink& operator=(const ChoiceSink&) = delete;

  /// Resolves a choice point with `count` >= 2 branches; returns < count.
  /// (Single-branch points are taken silently and never recorded.)
  virtual std::uint32_t choose(std::uint32_t count, ChoiceKind kind,
                               std::uint64_t a, std::uint64_t b) = 0;

  /// A crossing completed with canonical fingerprint `fp`. Returning false
  /// prunes the run: the state (budgets included) was fully explored.
  /// Not called while replaying() is true.
  virtual bool note_state(std::uint64_t fp) = 0;

  /// True while the run re-executes choices whose crossings the sink has
  /// already been shown; the world then neither fingerprints nor calls
  /// note_state (invariants are still checked at every crossing).
  [[nodiscard]] virtual bool replaying() const { return false; }

 protected:
  ChoiceSink() = default;
};

class CheckWorld;

/// Transport for checked worlds: send() parks the frame in the world's
/// in-flight pool (resolved at the next barrier crossing); deliveries
/// invoke the registered handlers directly. Powered tracks the node's
/// liveness, mirroring Radio::set_powered under crash().
class CheckTransport final : public Transport {
 public:
  CheckTransport(CheckWorld& world, Node& node) : world_(world), node_(node) {}

  void send(PayloadPtr payload, NodeId intended) override;
  void add_frame_handler(RawFrameHandler handler, void* ctx) override {
    handlers_.push_back({handler, ctx});
  }
  void set_powered(bool on) override { powered_ = on; }
  [[nodiscard]] bool powered() const override {
    return powered_ && node_.alive();
  }

  /// Hands one frame to every registered handler (no-op when unpowered).
  void deliver(const Reception& reception);

 private:
  struct HandlerRef {
    RawFrameHandler fn;
    void* ctx;
  };

  CheckWorld& world_;
  Node& node_;
  bool powered_ = true;
  std::vector<HandlerRef> handlers_;
};

/// TimerService over a private Simulator (the RealTimeScheduler pattern):
/// agents arm real TimerHandles, the world advances the clock barrier to
/// barrier, and the service tracks its handles so pending deadlines can be
/// folded into the state fingerprint. A world holds tens of timers, so the
/// simulator runs its binary heap (same firing order as the calendar) and
/// never builds the calendar's wheel.
class CheckTimerService final : public TimerService {
 public:
  [[nodiscard]] SimTime now() const override { return sim_.now(); }

  /// Fired and cancelled entries are pruned whenever the tracking list is
  /// full, so it stays proportional to the genuinely pending timers.
  TimerHandle schedule_at(SimTime when, EventFn action) override;
  TimerHandle schedule_after(SimTime delay, EventFn action) override {
    return schedule_at(sim_.now() + delay, std::move(action));
  }

  [[nodiscard]] Simulator& sim() { return sim_; }

  /// Deadlines of still-pending timers relative to now, ascending — the
  /// timer queue's contribution to the fingerprint. Valid until the next
  /// call.
  [[nodiscard]] const std::vector<std::int64_t>& pending_deltas();

 private:
  struct Tracked {
    SimTime when;
    TimerHandle handle;
  };

  Simulator sim_{QueueMode::kHeap};
  std::vector<Tracked> tracked_;
  std::vector<std::int64_t> deltas_;
};

/// One bounded world: real agents, check-owned seams, choice-driven
/// schedule. Construct fresh per run (agents hold references and are not
/// resettable); run() drives the full schedule once.
class CheckWorld {
 public:
  /// Largest population CheckOptions::nodes may ask for.
  static constexpr std::uint32_t kMaxNodes = 16;

  CheckWorld(const CheckOptions& opts, ChoiceSink& sink);

  /// Drives the bounded schedule plus the quiescence probe. Returns the
  /// first violation found, or nullopt when the run completed clean or was
  /// pruned (see pruned()).
  std::optional<Violation> run();

  /// True when the last run() ended early because the sink declined a
  /// visited state.
  [[nodiscard]] bool pruned() const { return pruned_; }

  /// Crash/recover events the schedule injected, in order.
  [[nodiscard]] const std::vector<FaultEvent>& fault_events() const {
    return fault_events_;
  }

  [[nodiscard]] const CheckOptions& options() const { return opts_; }

 private:
  friend class CheckTransport;  // send() appends to pool_

  /// One in-flight frame awaiting barrier resolution.
  struct PoolMsg {
    NodeId sender;
    NodeId intended;
    PayloadPtr payload;
    SimTime sent_at;
  };

  /// Runs crossings 0..5 of execution `epoch`; false = stop (violation or
  /// prune).
  bool run_epoch(std::uint64_t epoch);
  bool crossing(std::uint64_t epoch, std::uint32_t barrier);
  void resolve_pool(std::uint64_t epoch, std::uint32_t barrier);
  void fault_point(std::uint64_t epoch, std::uint32_t barrier);
  void round_actions(std::uint64_t epoch, std::uint32_t barrier);
  /// The view checks I-V7/I-V1/I-V6 (fds/snapshot.h) on every alive
  /// agent's live state.
  void check_invariants();
  [[nodiscard]] std::uint64_t fingerprint(std::uint64_t epoch,
                                          std::uint32_t barrier);

  /// Delivers one pooled frame to one receiver, enforcing the delivery
  /// obligations (I-V2/I-V4/I-V5) and updating the world evidence log.
  void deliver_to(const PoolMsg& msg, std::uint32_t receiver);
  void note_evidence(std::uint32_t receiver, const PoolMsg& msg);
  /// Delivers `batch_[index]` for each index in `indices` to `receiver`,
  /// permuted in place by a kOrder choice when the batch is small enough.
  void deliver_batch(std::vector<std::uint32_t>& indices,
                     std::uint32_t receiver);

  /// Forced-aware choice wrapper: trivial and probe-phase choices resolve
  /// to branch 0 without consulting the sink.
  std::uint32_t choose(std::uint32_t count, ChoiceKind kind, std::uint64_t a,
                       std::uint64_t b);

  /// Records the first violation; later ones are ignored.
  void flag(const char* invariant, std::string detail);

  /// First quiescence defect in the current configuration, or nullopt when
  /// the cluster is quiescent.
  [[nodiscard]] std::optional<std::string> quiescence_defect() const;

  CheckOptions opts_;
  ChoiceSink& sink_;
  SimTime phi_;  ///< execution period, 7 * t_hop
  FdsConfig config_;
  FdsHooks hooks_;
  CheckTimerService timers_;
  /// Backing store for the barrier world's Node views (slot i == NID i).
  NodeStore store_;

  /// One node of the world and everything bound to it. The agent holds
  /// references to the other three, so a member is built in place and
  /// never moved.
  struct Member {
    /// Node `id`, marked, with `cluster` installed and its agent wired.
    Member(CheckWorld& world, NodeId id,
           const MembershipView::ClusterViewPtr& cluster);

    Node node;
    MembershipView view;
    CheckTransport transport;
    FdsAgent agent;
  };
  /// members_[i] is NID i. A deque: elements never move, and a world
  /// costs one allocation per member instead of four.
  std::deque<Member> members_;

  std::vector<PoolMsg> pool_;
  /// The frames resolve_pool is delivering, swapped out of pool_ so that
  /// reactions pool for the next barrier; emptied after every crossing and
  /// kept for its capacity, like deliver_ (one receiver's batch).
  std::vector<PoolMsg> batch_;
  std::vector<std::uint32_t> deliver_;
  std::vector<FaultEvent> fault_events_;
  /// World-side recovery counts; the oracle for I-V4.
  std::vector<std::uint32_t> recover_count_;
  /// evid(receiver, sender) = (epoch at delivery) + 1 of the last
  /// evidence-of-life frame delivered receiver <- sender; 0 = never. The
  /// oracle for I-V3. Stamped only for frame kinds the detection rules
  /// actually consume (see note_evidence). Row-major nodes x nodes.
  std::vector<std::uint64_t> evid_;
  [[nodiscard]] std::uint64_t& evid(std::uint32_t receiver,
                                    std::uint32_t sender) {
    return evid_[std::size_t{receiver} * opts_.nodes + sender];
  }
  /// sched_upd_[receiver] = (epoch at delivery) + 1 of the last scheduled
  /// update delivered to receiver — the deputy-rule side of the I-V3
  /// oracle (a deputy that heard its CH's update must not declare it).
  std::vector<std::uint64_t> sched_upd_;

  std::uint32_t drops_left_ = 0;
  std::uint32_t crashes_left_ = 0;
  std::uint32_t recoveries_left_ = 0;

  /// Quiescence probe: resolve every choice to its benign default and stop
  /// fingerprinting (probe states have a different — empty — future choice
  /// tree, so recording them would make pruning unsound).
  bool forced_ = false;
  bool pruned_ = false;
  std::optional<Violation> violation_;
  std::uint64_t cur_epoch_ = 0;
  std::uint32_t cur_barrier_ = 0;
};

}  // namespace cfds::check
