#include "check/world.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "check/fingerprint.h"
#include "common/expect.h"
#include "common/geometry.h"
#include "fds/messages.h"
#include "fds/snapshot.h"
#include "fds/timetable.h"
#include "radio/payload.h"
#include "transport/reception.h"

namespace cfds::check {
namespace {

[[nodiscard]] bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

/// n! for the tiny batch sizes the permutation choice covers.
[[nodiscard]] std::uint32_t factorial(std::uint32_t n) {
  std::uint32_t f = 1;
  for (std::uint32_t i = 2; i <= n; ++i) f *= i;
  return f;
}

/// Rearranges `items` into their rank-th permutation in lexicographic order
/// (Lehmer code): rank 0 is the identity, matching the canonical no-choice
/// order. Position p takes the pick-th of the items not yet placed, which
/// keep their relative order behind it.
void permute(std::vector<std::uint32_t>& items, std::uint32_t rank) {
  const auto first = items.begin();
  for (std::uint32_t p = 0, k = std::uint32_t(items.size()); k > 0; ++p, --k) {
    const std::uint32_t f = factorial(k - 1);
    const std::uint32_t pick = rank / f;
    rank %= f;
    std::rotate(first + p, first + p + pick, first + p + pick + 1);
  }
}

[[nodiscard]] std::string nid(NodeId id) { return std::to_string(id.value()); }

}  // namespace

const char* choice_kind_name(ChoiceKind kind) {
  switch (kind) {
    case ChoiceKind::kFault: return "fault";
    case ChoiceKind::kDrop: return "drop";
    case ChoiceKind::kOrder: return "order";
  }
  return "?";
}

void CheckTransport::send(PayloadPtr payload, NodeId intended) {
  if (!powered()) return;
  world_.pool_.push_back(
      {node_.id(), intended, std::move(payload), world_.timers_.now()});
}

void CheckTransport::deliver(const Reception& reception) {
  if (!powered()) return;
  for (const HandlerRef& h : handlers_) h.fn(h.ctx, reception);
}

TimerHandle CheckTimerService::schedule_at(SimTime when, EventFn action) {
  if (tracked_.size() == tracked_.capacity()) {
    std::erase_if(tracked_,
                  [](const Tracked& t) { return !t.handle.pending(); });
  }
  TimerHandle handle = sim_.schedule_at(when, std::move(action));
  tracked_.push_back({when, handle});
  return handle;
}

const std::vector<std::int64_t>& CheckTimerService::pending_deltas() {
  deltas_.clear();
  const SimTime at = sim_.now();
  for (const Tracked& t : tracked_) {
    if (t.handle.pending()) deltas_.push_back((t.when - at).as_micros());
  }
  std::sort(deltas_.begin(), deltas_.end());
  return deltas_;
}

CheckWorld::CheckWorld(const CheckOptions& opts, ChoiceSink& sink)
    : opts_(opts), sink_(sink), phi_(opts.t_hop * 7) {
  CFDS_EXPECT(opts_.nodes >= 2 && opts_.nodes <= kMaxNodes,
              "check world population out of range");
  CFDS_EXPECT(opts_.deputies >= 1 && opts_.deputies < opts_.nodes,
              "deputy count out of range");
  CFDS_EXPECT(opts_.perm_max >= 1 && opts_.perm_max <= 5,
              "perm_max out of range (permutation ranks explode)");

  config_.heartbeat_interval = phi_;
  config_.rule_mode = RuleMode::kFull;
  config_.recovery_enabled = true;
  config_.adaptive_enabled = opts_.adaptive;
  config_.checkpoint_enabled = opts_.checkpoint;
  config_.checkpoint_interval_epochs = opts_.checkpoint_interval;
  config_.validate(opts_.t_hop);

  // I-V3: a decider must not declare a node whose rule-countable evidence
  // of life was delivered to it in the very epoch it decided over. For the
  // deputy rule the CH's scheduled update is itself such evidence.
  hooks_.on_detection = [this](NodeId decider, std::uint64_t epoch,
                               const std::vector<NodeId>& failed,
                               bool by_deputy) {
    if (decider.value() >= opts_.nodes) return;
    const bool heard_update =
        by_deputy && sched_upd_[decider.value()] == epoch + 1;
    for (NodeId f : failed) {
      if (f.value() >= opts_.nodes) continue;
      if (evid(decider.value(), f.value()) == epoch + 1 || heard_update) {
        flag("I-V3", "node " + nid(decider) + " declared node " + nid(f) +
                         " failed in epoch " + std::to_string(epoch) +
                         " despite evidence delivered that epoch" +
                         (by_deputy ? " (deputy rule)" : ""));
      }
    }
  };

  const std::uint32_t n = opts_.nodes;
  recover_count_.assign(n, 0);
  evid_.assign(std::size_t{n} * n, 0);
  sched_upd_.assign(n, 0);

  // The pre-formed cluster every run starts from: CH = NID 0, everyone
  // else a member, the lowest member NIDs ranked as deputies. Every member
  // adopts the one view object, as ClusterDirectory::install does; a
  // view is copied only when its node changes it.
  ClusterView cluster;
  cluster.id = ClusterId{0};
  cluster.clusterhead = NodeId{0};
  for (std::uint32_t i = 1; i < n; ++i) cluster.members.push_back(NodeId{i});
  for (std::uint32_t i = 1; i <= opts_.deputies; ++i) {
    cluster.deputies.push_back(NodeId{i});
  }

  const auto shared = std::make_shared<const ClusterView>(std::move(cluster));
  store_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    members_.emplace_back(*this, NodeId{i}, shared);
  }

  drops_left_ = opts_.max_drops;
  crashes_left_ = opts_.max_crashes;
  recoveries_left_ = opts_.max_recoveries;
}

CheckWorld::Member::Member(CheckWorld& world, NodeId id,
                           const MembershipView::ClusterViewPtr& cluster)
    : node(world.store_, id, Vec2{}),
      view(id),
      transport(world, node),
      agent(node, view, transport, world.timers_, world.opts_.t_hop,
            world.config_, world.hooks_) {
  node.set_marked(true);
  view.set_cluster(cluster);
}

std::optional<Violation> CheckWorld::run() {
  for (std::uint64_t e = 0; e < opts_.epochs; ++e) {
    if (!run_epoch(e)) return violation_;  // nullopt when pruned
  }
  if (opts_.quiesce_max == 0) return violation_;

  // Quiescence probe: grant the cluster forced-benign executions and
  // require it to reach a self-consistent steady state.
  forced_ = true;
  if (!quiescence_defect()) return violation_;
  for (std::uint32_t q = 0; q < opts_.quiesce_max; ++q) {
    if (!run_epoch(opts_.epochs + q)) return violation_;
    if (!quiescence_defect()) return violation_;
  }
  std::optional<std::string> defect = quiescence_defect();
  CFDS_EXPECT(defect.has_value(), "probe loop exited without a defect");
  cur_epoch_ = opts_.epochs + opts_.quiesce_max - 1;
  cur_barrier_ = 5;
  flag("quiescence", "not quiescent after " +
                         std::to_string(opts_.quiesce_max) +
                         " benign executions: " + *defect);
  return violation_;
}

bool CheckWorld::run_epoch(std::uint64_t epoch) {
  for (std::uint32_t k = 0; k < 6; ++k) {
    if (!crossing(epoch, k)) return false;
  }
  return true;
}

bool CheckWorld::crossing(std::uint64_t epoch, std::uint32_t barrier) {
  cur_epoch_ = epoch;
  cur_barrier_ = barrier;
  // Advance the clock to the barrier; agent timers armed earlier (deputy
  // rank timers, peer-forward waits) fire here and park their frames in
  // the pool.
  const SimTime at =
      phi_ * std::int64_t(epoch) + opts_.t_hop * std::int64_t(barrier);
  timers_.sim().run_until(at);
  if (violation_) return false;  // a timer-driven detection tripped I-V3
  resolve_pool(epoch, barrier);
  batch_.clear();
  if (violation_) return false;
  fault_point(epoch, barrier);
  if (violation_) return false;
  round_actions(epoch, barrier);
  if (violation_) return false;
  check_invariants();
  if (violation_) return false;
  // A replayed crossing reproduces a state the recording run already
  // showed the sink, so it is neither fingerprinted nor pruned on.
  if (!forced_ && !sink_.replaying() &&
      !sink_.note_state(fingerprint(epoch, barrier))) {
    pruned_ = true;
    return false;
  }
  return true;
}

void CheckWorld::resolve_pool(std::uint64_t epoch, std::uint32_t barrier) {
  (void)epoch;
  (void)barrier;
  batch_.swap(pool_);  // reactions to deliveries pool for the NEXT barrier
  if (batch_.empty()) return;

  if (opts_.reduction) {
    // Receiver-major resolution: each alive receiver's batch is dropped
    // and ordered independently; cross-receiver interleavings are never
    // enumerated (receivers share no state between crossings).
    for (std::uint32_t r = 0; r < opts_.nodes; ++r) {
      if (!members_[r].transport.powered()) continue;
      deliver_.clear();
      for (std::uint32_t i = 0; i < std::uint32_t(batch_.size()); ++i) {
        if (batch_[i].sender.value() == r) continue;  // own broadcast
        if (drops_left_ > 0 && choose(2, ChoiceKind::kDrop, i, r) == 1) {
          --drops_left_;
          continue;
        }
        deliver_.push_back(i);
      }
      deliver_batch(deliver_, r);
      if (violation_) return;
    }
    return;
  }

  // Unreduced: one global interleaving over (frame, receiver) pairs. Only
  // the DPOR soundness test runs this; the state space is much larger.
  struct Pair {
    std::uint32_t msg;
    std::uint32_t receiver;
  };
  std::vector<Pair> pairs;
  for (std::uint32_t i = 0; i < std::uint32_t(batch_.size()); ++i) {
    for (std::uint32_t r = 0; r < opts_.nodes; ++r) {
      if (batch_[i].sender.value() == r || !members_[r].transport.powered()) {
        continue;
      }
      if (drops_left_ > 0 && choose(2, ChoiceKind::kDrop, i, r) == 1) {
        --drops_left_;
        continue;
      }
      pairs.push_back({i, r});
    }
  }
  std::vector<std::uint32_t> order(pairs.size());
  for (std::uint32_t i = 0; i < std::uint32_t(order.size()); ++i) order[i] = i;
  if (pairs.size() >= 2 && pairs.size() <= opts_.perm_max) {
    const std::uint32_t rank =
        choose(factorial(std::uint32_t(pairs.size())), ChoiceKind::kOrder,
               /*a=*/~std::uint64_t{0}, pairs.size());
    permute(order, rank);
  }
  for (std::uint32_t idx : order) {
    deliver_to(batch_[pairs[idx].msg], pairs[idx].receiver);
    if (violation_) return;
  }
}

void CheckWorld::deliver_batch(std::vector<std::uint32_t>& indices,
                               std::uint32_t receiver) {
  if (indices.size() >= 2 && indices.size() <= opts_.perm_max) {
    const std::uint32_t rank =
        choose(factorial(std::uint32_t(indices.size())), ChoiceKind::kOrder,
               receiver, indices.size());
    permute(indices, rank);
  }
  for (std::uint32_t i : indices) {
    deliver_to(batch_[i], receiver);
    if (violation_) return;
  }
}

void CheckWorld::deliver_to(const PoolMsg& msg, std::uint32_t receiver) {
  CheckTransport& transport = members_[receiver].transport;
  if (!transport.powered()) return;  // crashed between resolution and here
  FdsAgent& agent = members_[receiver].agent;

  // I-V4: a heartbeat on the air carries exactly the incarnation the world
  // has granted its sender (recover() bumps both).
  if (msg.payload->tag() == PayloadKind::kHeartbeat) {
    const auto* hb = payload_cast<HeartbeatPayload>(msg.payload);
    if (hb != nullptr &&
        hb->incarnation != recover_count_[msg.sender.value()]) {
      flag("I-V4", "heartbeat from node " + nid(msg.sender) +
                       " carries incarnation " +
                       std::to_string(hb->incarnation) + ", world count is " +
                       std::to_string(recover_count_[msg.sender.value()]));
    }
  }

  // I-V2 precondition: an acting head about to hear a direct same-cluster
  // update from a lower-NID rival must lose the arbitration.
  bool rival_obligation = false;
  if (const auto* up = payload_cast<HealthUpdatePayload>(msg.payload)) {
    rival_obligation = config_.recovery_enabled &&
                       agent.view().is_clusterhead() &&
                       up->cluster == agent.view().cluster()->id &&
                       up->sender != agent.id() &&
                       up->sender.value() < agent.id().value();
  }

  // I-V5 precondition: snapshot the stored checkpoint before delivery.
  std::shared_ptr<const CheckpointPayload> before;
  if (msg.payload->tag() == PayloadKind::kCheckpoint) {
    before = agent.stable_checkpoint();
  }

  transport.deliver(Reception{msg.sender, msg.intended, msg.payload,
                              msg.sent_at});

  if (rival_obligation && agent.view().is_clusterhead()) {
    flag("I-V2", "node " + nid(agent.id()) +
                     " still acting head after a direct update from rival " +
                     "head with lower NID");
  }
  if (before) {
    const std::shared_ptr<const CheckpointPayload>& after =
        agent.stable_checkpoint();
    if (after &&
        (after->epoch < before->epoch ||
         (after->epoch == before->epoch && after->seq < before->seq))) {
      flag("I-V5", "node " + nid(agent.id()) + " regressed its checkpoint (" +
                       std::to_string(before->epoch) + "," +
                       std::to_string(before->seq) + ") -> (" +
                       std::to_string(after->epoch) + "," +
                       std::to_string(after->seq) + ")");
    }
  }

  note_evidence(receiver, msg);
}

void CheckWorld::note_evidence(std::uint32_t receiver, const PoolMsg& msg) {
  // Stamps are (epoch at delivery) + 1 so 0 can mean "never". Frames
  // delivered at the next execution's first barrier land before
  // begin_epoch and are stamped with the old epoch — correctly: that
  // epoch's decisions are already made, and the receiving agent's own
  // evidence buffer discards them at the boundary too.
  //
  // Stamps mirror EXACTLY the evidence the protocol's rules consume
  // (agent.cpp): heartbeats and notices feed note_alive; a digest vouches
  // for its sender and everyone it reports hearing, but only to an
  // affiliated CH/deputy of the digest's cluster; a scheduled update
  // vouches for the CH to the deputy rule (sched_upd_). Frames the rules
  // ignore — requests, acks, checkpoints — must NOT stamp: an ack sent
  // just before its sender crashes is still in flight when the crash
  // lands, and stamping it would mark the genuinely dead sender as
  // "evidence delivered this epoch", flagging a CORRECT detection.
  const FdsAgent& agent = members_[receiver].agent;
  const std::uint64_t stamp = agent.current_epoch() + 1;
  switch (msg.payload->tag()) {
    case PayloadKind::kHeartbeat:
    case PayloadKind::kLeaveNotice:
    case PayloadKind::kSleepNotice:
      evid(receiver, msg.sender.value()) = stamp;
      break;
    case PayloadKind::kDigest: {
      const auto* digest = payload_cast<DigestPayload>(msg.payload);
      const ClusterRef c = agent.view().cluster();
      if (digest == nullptr || !c || digest->cluster != c->id ||
          (!agent.view().is_clusterhead() && !agent.view().is_deputy())) {
        break;
      }
      evid(receiver, msg.sender.value()) = stamp;
      for (NodeId heard : digest->heard) {
        if (heard.value() < opts_.nodes) evid(receiver, heard.value()) = stamp;
      }
      break;
    }
    case PayloadKind::kHealthUpdate:
    case PayloadKind::kUpdateForward: {
      std::shared_ptr<const HealthUpdatePayload> up;
      if (const auto* fwd = payload_cast<UpdateForwardPayload>(msg.payload)) {
        if (fwd->target != agent.id()) break;
        up = fwd->update;
      } else {
        up = payload_cast_shared<HealthUpdatePayload>(msg.payload);
      }
      const ClusterRef c = agent.view().cluster();
      // Mirrors handle_update's `scheduled`: this is the update the deputy
      // rule early-returns on, so hearing it forbids declaring the CH.
      if (up && c && up->cluster == c->id &&
          up->epoch == agent.current_epoch() &&
          (up->sender == c->clusterhead || up->takeover)) {
        sched_upd_[receiver] = stamp;
      }
      break;
    }
    default:
      break;
  }
}

void CheckWorld::fault_point(std::uint64_t epoch, std::uint32_t barrier) {
  // Crash menus open where they hit distinct protocol windows: before the
  // execution (barrier 0: silent all epoch), between digests and the
  // update (barrier 2: CH dies without sending), and after update
  // delivery (barrier 3: CH dies having spoken). Recoveries only at the
  // execution boundary.
  if (barrier != 0 && barrier != 2 && barrier != 3) return;
  struct Option {
    bool recover;
    std::uint32_t idx;
  };
  // A node is either down (a recovery option) or up (a crash option), so
  // the menu never holds more than one option per node.
  std::array<Option, kMaxNodes> menu;
  std::uint32_t options = 0;
  if (barrier == 0 && recoveries_left_ > 0) {
    for (std::uint32_t i = 0; i < opts_.nodes; ++i) {
      if (!members_[i].node.alive()) menu[options++] = {true, i};
    }
  }
  if (crashes_left_ > 0) {
    for (std::uint32_t i = 0; i < opts_.nodes; ++i) {
      if (members_[i].node.alive()) menu[options++] = {false, i};
    }
  }
  if (options == 0) return;
  const std::uint32_t c =
      choose(options + 1, ChoiceKind::kFault, epoch * 6 + barrier, 0);
  if (c == 0) return;
  const Option& op = menu[c - 1];
  if (op.recover) {
    members_[op.idx].node.recover();
    ++recover_count_[op.idx];
    --recoveries_left_;
  } else {
    members_[op.idx].node.crash();
    --crashes_left_;
  }
  fault_events_.push_back(
      {op.recover, NodeId{op.idx}, timers_.now().as_micros()});
}

void CheckWorld::round_actions(std::uint64_t epoch, std::uint32_t barrier) {
  // Barrier b is b Thop into the execution, so it runs the timetable rows
  // due then, over every agent in ascending NID order (agents guard on their
  // own liveness). Barrier 5 only resolves deliveries (requests, forwards).
  const auto all = [this](auto&& fn, bool /*everyone*/) {
    for (Member& m : members_) fn(m.agent);
  };
  for (const RoundRow& row : kRoundTimetable) {
    if (row.hops == std::int64_t{barrier}) run_round_row(row, epoch, all);
  }
}

void CheckWorld::check_invariants() {
  // On the live agents: no Snapshot is built, so a passing crossing
  // allocates nothing.
  for (std::uint32_t i = 0; i < opts_.nodes; ++i) {
    const Member& m = members_[i];
    if (!m.node.alive()) continue;
    std::vector<InvariantViolation> found = check_view(m.agent, m.node);
    if (!found.empty()) {
      flag(found.front().invariant, std::move(found.front().detail));
      return;
    }
  }
}

std::uint64_t CheckWorld::fingerprint(std::uint64_t epoch,
                                      std::uint32_t barrier) {
  Hasher h;
  h.mix(epoch);
  h.mix(barrier);
  // Remaining budgets are future-behaviour state: equal protocol states
  // with different budgets have different choice trees ahead.
  h.mix(drops_left_);
  h.mix(crashes_left_);
  h.mix(recoveries_left_);
  for (std::uint32_t i = 0; i < opts_.nodes; ++i) {
    h.mix(recover_count_[i]);
    StateFingerprinter::mix_agent(h, members_[i].agent);
  }
  // In-flight pool, in send order (the canonical delivery order).
  h.mix(pool_.size());
  for (const PoolMsg& m : pool_) {
    h.mix(m.sender.value());
    h.mix(m.intended.value());
    StateFingerprinter::mix_payload(h, *m.payload);
  }
  // Pending timer deadlines relative to now. Equal-deadline firing order
  // is unobservable here: same-time timers either belong to different
  // nodes or only emit frames, and frame order is canonicalized by the
  // pool.
  const std::vector<std::int64_t>& deltas = timers_.pending_deltas();
  h.mix(deltas.size());
  for (std::int64_t d : deltas) h.mix(std::uint64_t(d));
  // World evidence entries matter only while current (I-V3 compares by
  // equality with the decider's epoch); stale entries are normalized out
  // so equal protocol states merge.
  for (std::uint32_t r = 0; r < opts_.nodes; ++r) {
    const std::uint64_t stamp = members_[r].agent.current_epoch() + 1;
    for (std::uint32_t s = 0; s < opts_.nodes; ++s) {
      h.mix(evid(r, s) == stamp ? 1U : 0U);
    }
    h.mix(sched_upd_[r] == stamp ? 1U : 0U);
  }
  return h.digest();
}

std::uint32_t CheckWorld::choose(std::uint32_t count, ChoiceKind kind,
                                 std::uint64_t a, std::uint64_t b) {
  if (count <= 1 || forced_) return 0;  // 0 is always the benign default
  const std::uint32_t c = sink_.choose(count, kind, a, b);
  CFDS_EXPECT(c < count, "ChoiceSink returned an out-of-range branch");
  return c;
}

void CheckWorld::flag(const char* invariant, std::string detail) {
  if (violation_) return;  // first violation wins; the rest are downstream
  violation_ =
      Violation{invariant, std::move(detail), cur_epoch_, cur_barrier_};
}

std::optional<std::string> CheckWorld::quiescence_defect() const {
  std::vector<std::uint32_t> alive;
  for (std::uint32_t i = 0; i < opts_.nodes; ++i) {
    if (members_[i].node.alive()) alive.push_back(i);
  }
  if (alive.empty()) return std::nullopt;  // vacuously quiescent

  std::vector<std::uint32_t> heads;
  for (std::uint32_t i : alive) {
    if (members_[i].agent.view().is_clusterhead()) heads.push_back(i);
  }
  if (heads.empty()) {
    // Full dissolution is a legitimate FDS-layer terminal state: when the
    // CH crashes and recovers amnesiac (no checkpoint), the deputies keep
    // hearing it alive — so never take over — and every member's
    // re-affiliation patience eventually reverts it to the unmarked,
    // unaffiliated state that hands the cluster back to the formation
    // protocol (which checked worlds exclude). Quiescent only if the
    // dissolution is COMPLETE: a node still marked or affiliated while no
    // head exists is a zombie.
    for (std::uint32_t i : alive) {
      if (members_[i].node.marked()) {
        return "no acting clusterhead but node " + std::to_string(i) +
               " is still marked";
      }
      if (members_[i].agent.view().affiliated()) {
        return "no acting clusterhead but node " + std::to_string(i) +
               " is still affiliated";
      }
    }
    return std::nullopt;
  }
  if (heads.size() != 1) {
    return std::to_string(heads.size()) + " acting clusterheads among " +
           std::to_string(alive.size()) + " alive nodes";
  }
  const FdsAgent& head = members_[heads.front()].agent;
  const ClusterView& c = *head.view().cluster();

  for (std::uint32_t i : alive) {
    const std::string who = "node " + std::to_string(i);
    if (!members_[i].node.marked()) return who + " unmarked";
    if (!members_[i].agent.view().affiliated()) return who + " unaffiliated";
    if (i != heads.front() && !contains(c.members, NodeId{i})) {
      return who + " missing from the head's roster";
    }
    for (std::uint32_t j : alive) {
      if (members_[i].agent.log().knows(NodeId{j})) {
        return who + " still records alive node " + std::to_string(j) +
               " as failed";
      }
    }
  }
  for (std::uint32_t i = 0; i < opts_.nodes; ++i) {
    if (members_[i].node.alive()) continue;
    if (!head.log().knows(NodeId{i})) {
      return "dead node " + std::to_string(i) + " missing from the head's log";
    }
    for (std::uint32_t j : alive) {
      const ClusterRef jc = members_[j].agent.view().cluster();
      if (jc && (contains(jc->members, NodeId{i}) ||
                 contains(jc->deputies, NodeId{i}))) {
        return "dead node " + std::to_string(i) + " still in node " +
               std::to_string(j) + "'s roster";
      }
    }
  }
  return std::nullopt;
}

}  // namespace cfds::check
