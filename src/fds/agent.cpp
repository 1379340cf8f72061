#include "fds/agent.h"

#include <algorithm>

#include "common/expect.h"
#include "fds/timetable.h"

namespace cfds {

namespace {

/// Send-pool accessor: hands back the pooled payload for in-place reuse when
/// this agent holds the only reference, or replaces it with a fresh object
/// when some receiver still does (see the pool members in fds/agent.h).
template <typename T>
T& pooled(std::shared_ptr<T>& pool) {
  if (!pool || pool.use_count() != 1) pool = std::make_shared<T>();
  return *pool;
}

}  // namespace

SimTime peer_waiting_period(NodeId id, double energy_frac, SimTime t_hop) {
  // NID-derived point in (0, 1): globally unique NIDs give (probabilistically)
  // unique waiting periods, so candidate forwarders fire one at a time.
  std::uint64_t sm = id.value();
  const double unique = double(splitmix64(sm) >> 11) * 0x1.0p-53;
  // Energy stretch: a full battery halves the wait relative to an empty one,
  // draining well-charged peers first (energy balancing).
  const double stretch = (2.0 - std::clamp(energy_frac, 0.0, 1.0)) / 2.0;
  const double frac = 0.04 + 0.92 * unique * stretch;
  return SimTime::micros(std::int64_t(frac * double(t_hop.as_micros())));
}

FdsAgent::FdsAgent(Node& node, MembershipView& view, Transport& transport,
                   TimerService& timers, SimTime t_hop,
                   const FdsConfig& config, FdsHooks& hooks)
    : node_(node),
      view_(view),
      transport_(transport),
      timers_(timers),
      t_hop_(t_hop),
      config_(config),
      hooks_(hooks) {
  if (config_.adaptive_enabled) adaptive_ = std::make_unique<Adaptive>();
  if (config_.checkpoint_enabled) {
    checkpoints_ = std::make_unique<Checkpoints>();
  }
  if (config_.tolerate_epoch_skew) {
    skew_ = std::make_unique<SkewTolerance>();
  }
  transport_.add_frame_handler(
      [](void* self, const Reception& reception) {
        static_cast<FdsAgent*>(self)->on_frame(reception);
      },
      this);
  node_.add_lifecycle_handler([this](bool alive) { on_lifecycle(alive); });
}

void FdsAgent::on_lifecycle(bool alive) {
  if (!alive) {
    // Crash: a dead node must never fire a round callback. The deputy
    // evaluation and any armed peer forwards are cancelled outright (their
    // alive-guards would stop them too, but a cancelled timer costs nothing
    // and cannot race a same-epoch recovery).
    deputy_timer_.cancel();
    for (auto& [target, timer] : pending_forwards_) timer.cancel();
    pending_forwards_.clear();
    return;
  }
  // Recovery: volatile protocol state did not survive the crash. The node
  // restarts unaffiliated and unmarked, so its next heartbeat is a fresh
  // membership subscription (F5) and the lowest-NID affiliation rules of
  // Section 3 re-run naturally through the admission path.
  view_.clear();
  node_.set_marked(false);
  log_.clear();
  missed_updates_ = 0;
  left_ = false;
  evidence_.clear();
  if (skew_) *skew_ = {};
  unmarked_heard_.clear();
  leaves_heard_.clear();
  notices_heard_.clear();
  sleep_exemptions_.clear();
  got_scheduled_update_ = false;
  scheduled_update_.reset();
  acked_requesters_.clear();
  sent_ack_ = false;
  if (adaptive_) adaptive_->reset();
  // The stored checkpoint deliberately survives: it models stable storage,
  // the one thing a minimum-process checkpointing scheme assumes outlives
  // the crash. If it names this node as CH or deputy, restore from it and
  // reconcile with the live cluster instead of cold-rejoining.
  if (checkpoints_) restore_from_checkpoint();
}

double FdsAgent::energy_fraction() const {
  const double initial = node_.initial_energy_uj();
  return initial > 0.0 ? node_.remaining_energy_uj() / initial : 1.0;
}

ReportId FdsAgent::fresh_report_id() {
  return ReportId{(std::uint64_t(node_.id().value()) << 32) |
                  ++report_counter_};
}

// LINT-ROUND-PATH: per-epoch for every agent; allocation-free in steady
// state (tests/test_steady_state_alloc.cpp). Failure-path allocations are
// baseline burndown debt.
void FdsAgent::begin_epoch(std::uint64_t epoch) {
  // Close out the previous execution's contact accounting before resetting.
  if (node_.alive() && view_.affiliated() && !view_.is_clusterhead() &&
      transport_.powered()) {
    if (adaptive_) {
      // A member's only per-execution liveness signal from its CH is the
      // scheduled update; feed it to the estimator so the deputies' accrual
      // gate (evaluate_ch_failure) knows how flaky the CH's link is.
      adaptive_->estimator_.observe(view_.cluster()->clusterhead,
                                    got_scheduled_update_);
    }
    missed_updates_ = got_scheduled_update_ ? 0 : missed_updates_ + 1;
    // Under adaptive detection the CH-announced tune level stretches the
    // re-affiliation patience: a congested cluster (high announced loss)
    // must not shed members over transient misses.
    if (missed_updates_ >= kReaffiliateAfterMissed + tune_level()) {
      // Lost contact with the cluster (drifted out of range, or the CH we
      // can hear changed): revert to unmarked and re-subscribe (F5).
      step_down(kRevertMissedUpdates);
    }
  }
  epoch_ = epoch;
  if (skew_) {
    // Soft boundary: a neighbour running a few milliseconds ahead has
    // already delivered its R-1 heartbeat for this execution; wiping it
    // here would fail that neighbour every single epoch. Age out evidence
    // older than one execution plus Thop slack instead (see
    // FdsConfig::tolerate_epoch_skew).
    skew_->prune(evidence_,
                 timers_.now() -
                     SimTime::micros(config_.heartbeat_interval.as_micros() +
                                     t_hop_.as_micros()));
  } else {
    evidence_.clear();
  }
  // An acting head under tolerate_epoch_skew keeps pending subscriptions
  // across the boundary (they are consumed at R-3); everyone else starts
  // the execution with a clean slate.
  if (!skew_ || !view_.is_clusterhead()) unmarked_heard_.clear();
  notices_heard_.clear();
  // leaves_heard_ persists across the epoch boundary: a notice arriving
  // after this epoch's R-3 must still be honoured by the next one.
  got_scheduled_update_ = false;
  scheduled_update_.reset();
  acked_requesters_.clear();
  for (auto& [target, timer] : pending_forwards_) timer.cancel();
  pending_forwards_.clear();
  deputy_timer_.cancel();
  sent_ack_ = false;
}

// LINT-ROUND-PATH: per-epoch for every agent; allocation-free in steady
// state (tests/test_steady_state_alloc.cpp). Failure-path allocations are
// baseline burndown debt.
void FdsAgent::round1_heartbeat() {
  if (!node_.alive() || left_) return;
  if (config_.external_heartbeats) return;  // another layer supplies them
  HeartbeatPayload& heartbeat = pooled(heartbeat_pool_);
  heartbeat.sender = node_.id();
  heartbeat.marked = node_.marked();
  heartbeat.incarnation = node_.incarnation();
  ++heartbeats_sent_;
  if (!heartbeat.marked) {
    ++unmarked_sent_;
    last_unmarked_epoch_ = epoch_;
  }
  transport_.send(heartbeat_pool_);
}

void FdsAgent::announce_leave() {
  if (!node_.alive()) return;
  auto notice = std::make_shared<LeaveNoticePayload>();
  notice->sender = node_.id();
  transport_.send(std::move(notice));
  view_.clear();
  node_.set_marked(false);
  if (adaptive_) adaptive_->reset();
  left_ = true;
}

void FdsAgent::rejoin() { left_ = false; }

void FdsAgent::announce_sleep(std::uint32_t epochs) {
  if (!node_.alive()) return;
  auto notice = std::make_shared<SleepNoticePayload>();
  notice->sender = node_.id();
  notice->epochs = epochs;
  transport_.send(std::move(notice));
  transport_.set_powered(false);
}

void FdsAgent::wake_up() {
  if (!node_.alive()) return;
  transport_.set_powered(true);
}

// LINT-ROUND-PATH: per-epoch for every agent; allocation-free in steady
// state (tests/test_steady_state_alloc.cpp). Failure-path allocations are
// baseline burndown debt.
void FdsAgent::round2_digest() {
  if (!node_.alive() || !view_.affiliated()) return;
  const ClusterView& cluster = *view_.cluster();
  DigestPayload& digest = pooled(digest_pool_);
  digest.sender = node_.id();
  digest.cluster = cluster.id;
  digest.heard.clear();
  digest.sleeping.clear();
  // Enumerate only in-cluster heartbeats (the digest "enumerates the nodes
  // in C from which the sender hears or overhears their heartbeats").
  for (NodeId heard : evidence_.heartbeats) {
    if (cluster.is_member(heard)) digest.heard.push_back(heard);
  }
  if (config_.relay_sleep_notices) {
    for (const auto& [sleeper, epochs] : notices_heard_) {
      if (cluster.is_member(sleeper)) digest.sleeping.emplace_back(sleeper, epochs);
    }
  }
  // Members send to the CH; the CH broadcasts its own digest.
  const NodeId intended =
      view_.is_clusterhead() ? NodeId::invalid() : cluster.clusterhead;
  transport_.send(digest_pool_, intended);
}

// LINT-ROUND-PATH: per-epoch for every agent; allocation-free in steady
// state (tests/test_steady_state_alloc.cpp). Failure-path allocations are
// baseline burndown debt.
void FdsAgent::round3_update() {
  if (!node_.alive() || !view_.is_clusterhead()) return;
  // Voluntary departures announced this epoch leave the membership first —
  // bookkept as departures, never as failures.
  std::vector<NodeId> departed;
  for (NodeId leaver : leaves_heard_) {
    if (view_.cluster()->is_member(leaver)) departed.push_back(leaver);
  }
  view_.remove_members(departed);
  leaves_heard_.clear();

  // Members inside an announced sleep window are not expected to show any
  // sign of life (Section 6 extension); consume one exempt execution each.
  std::vector<NodeId>& expected = expected_scratch_;
  expected.clear();
  for (NodeId member : view_.cluster()->members) {
    const auto it = sleep_exemptions_.find(member);
    if (it != sleep_exemptions_.end() && it->second > 0) {
      --it->second;
      continue;
    }
    expected.push_back(member);
  }
  // Adaptive: the same evidence feeds the per-member link-quality estimator,
  // and a silent member is declared only once its accrued suspicion clears
  // the threshold — identical latency over clean links, extra consecutive
  // misses demanded over lossy ones (see fds/link_quality.h).
  const std::vector<NodeId> failed =
      adaptive_ ? detect_failed_accrual(expected, evidence_, config_.rule_mode,
                                        adaptive_->estimator_,
                                        config_.accrual_threshold_milli)
                : detect_failed(expected, evidence_, config_.rule_mode);

  // Reset EVERY field of the pooled update: a recycled object still carries
  // the previous epoch's admissions, snapshot, report id and piggybacks.
  HealthUpdatePayload& update = pooled(update_pool_);
  update.cluster = view_.cluster()->id;
  update.sender = node_.id();
  update.epoch = epoch_;
  update.newly_failed = failed;
  update.departed = departed;
  update.admitted.clear();
  update.members_snapshot.clear();
  update.takeover = false;
  update.sender_heard.clear();
  update.report = ReportId();
  update.acks.clear();
  update.learned_from = ClusterId();
  update.cluster_loss_pm = 0;
  update.tune_level = 0;

  for (NodeId f : failed) {
    log_.record(f, {timers_.now(), epoch_, node_.id()});
  }
  if (adaptive_) {
    for (NodeId f : failed) adaptive_->estimator_.forget(f);
    for (NodeId d : departed) adaptive_->estimator_.forget(d);
  }
  view_.remove_members(failed);

  // Unmarked heartbeats are membership subscriptions (feature F5).
  for (NodeId newcomer : unmarked_heard_) {
    if (config_.admit_filter != nullptr &&
        !config_.admit_filter(config_.admit_filter_ctx, newcomer)) {
      continue;  // another clusterhead's responsibility
    }
    // Under crash-recovery, an unmarked heartbeat from a *current* member
    // is a node that lost its view (recovered or reaffiliating): it keeps
    // its membership slot but needs the snapshot to reinstall it.
    if (config_.recovery_enabled || !view_.cluster()->is_member(newcomer)) {
      update.admitted.push_back(newcomer);
    }
  }
  if (!update.admitted.empty()) {
    if (config_.recovery_enabled) {
      // Admission refutes stale failure records: a node subscribing with
      // a live heartbeat is alive, whatever the log said.
#ifndef CFDS_MUTATION_ADMIT_WITHOUT_REFUTE
      for (NodeId n : update.admitted) log_.erase(n);
#endif
    }
    view_.admit_members(update.admitted);
    update.members_snapshot = view_.cluster()->members;
  }
  // Consumed under tolerate_epoch_skew: each subscription is honoured (or
  // delegated via the filter) exactly once, so stale entries cannot trigger
  // a re-admission of a node that has long since died or joined elsewhere.
  if (skew_) unmarked_heard_.clear();
  // Cumulative knowledge is published after admissions, so a re-admitted
  // node is never simultaneously listed failed in the same update.
  log_.known_failed(update.all_failed);
  if (config_.recovery_enabled) {
    // Under crash-recovery the scheduled update always carries the full
    // roster: members reconcile against it, so a lost admission or removal
    // update heals at the next execution instead of diverging forever.
    update.members_snapshot = view_.cluster()->members;
  }

  if (!failed.empty()) {
    update.report = fresh_report_id();
    if (hooks_.on_detection) {
      hooks_.on_detection(node_.id(), epoch_, failed, /*by_deputy=*/false);
    }
  }
  if (adaptive_) adaptive_->announce(update);
  got_scheduled_update_ = true;  // the author trivially has the update
  scheduled_update_ = update_pool_;
  broadcast_update(update_pool_);
  if (checkpoints_ && epoch_ % config_.checkpoint_interval_epochs == 0) {
    emit_checkpoint();
  }
}

// LINT-ROUND-PATH: per-epoch for every agent; allocation-free in steady
// state (tests/test_steady_state_alloc.cpp). Failure-path allocations are
// baseline burndown debt.
void FdsAgent::deputy_check() {
  if (!node_.alive() || !view_.affiliated()) return;
  // Ranked deputies (feature F2): the highest-ranked DCH decides now; each
  // lower rank stands by one further Thop and only acts if no takeover (or
  // CH update) has been heard by then — covering the CH and higher deputies
  // dying in the same interval.
  const auto& deputies = view_.cluster()->deputies;
  std::size_t rank = deputies.size();
  for (std::size_t i = 0; i < deputies.size(); ++i) {
    if (deputies[i] == node_.id()) rank = i;
  }
  if (rank == deputies.size()) return;  // not a deputy
  if (rank == 0) {
    evaluate_ch_failure();
  } else {
    const std::uint64_t epoch_at_arming = epoch_;
    // Stored (not discarded) so that crash() can cancel it: a node that dies
    // with its evaluation armed must not fire a takeover from the grave.
    deputy_timer_ = timers_.schedule_after(std::int64_t(rank) * t_hop_,
                                        [this, epoch_at_arming] {
                                          if (epoch_ == epoch_at_arming) {
                                            evaluate_ch_failure();
                                          }
                                        });
  }
}

void FdsAgent::evaluate_ch_failure() {
  // An unmarked deputy was itself declared failed: it is re-subscribing
  // (F5), and taking over now would make an acting head that only ever
  // sends unmarked heartbeats.
  if (!node_.alive() || !view_.affiliated() || !node_.marked()) return;
#ifndef CFDS_MUTATION_DEPUTY_IGNORES_CH_UPDATE
  if (got_scheduled_update_) return;  // the CH (or a higher deputy) spoke
  evidence_.ch_update_heard = got_scheduled_update_;
#else
  evidence_.ch_update_heard = false;
#endif
  const NodeId ch = view_.cluster()->clusterhead;
  if (!clusterhead_failed(ch, evidence_, config_.rule_mode)) return;
  // Accrual gate on the takeover (begin_epoch observes the CH once per
  // epoch). Over a clean link one miss clears it — the static rule's
  // latency; over a lossy link the deputy holds back for more silence.
  if (adaptive_ &&
      !adaptive_->clears_gate(ch, config_.accrual_threshold_milli)) {
    return;
  }

  // Takeover (Section 4.2): the highest-ranked DCH assumes the CH role and
  // announces the failure together with its own R-1 hearing so members can
  // proactively cover any member outside the new CH's range (Figure 2(a)).
  view_.apply_takeover(node_.id());
  // Role change: the member-side estimator tracked the (now failed) CH;
  // as acting head this node starts estimating its members afresh.
  if (adaptive_) adaptive_->estimator_.clear();
  log_.record(ch, {timers_.now(), epoch_, node_.id()});

  auto update = std::make_shared<HealthUpdatePayload>();
  update->cluster = view_.cluster()->id;
  update->sender = node_.id();
  update->epoch = epoch_;
  update->newly_failed = {ch};
  log_.known_failed(update->all_failed);
  update->takeover = true;
  update->sender_heard.assign(evidence_.heartbeats.begin(),
                              evidence_.heartbeats.end());
  update->report = fresh_report_id();
  if (config_.recovery_enabled) {
    update->members_snapshot = view_.cluster()->members;
  }

  if (hooks_.on_detection) {
    hooks_.on_detection(node_.id(), epoch_, update->newly_failed,
                        /*by_deputy=*/true);
  }
  if (hooks_.on_takeover) hooks_.on_takeover(node_.id(), ch, epoch_);

  got_scheduled_update_ = true;
  scheduled_update_ = update;
  broadcast_update(std::move(update));
}

// LINT-ROUND-PATH: per-epoch for every agent; allocation-free in steady
// state (tests/test_steady_state_alloc.cpp). Failure-path allocations are
// baseline burndown debt.
void FdsAgent::completeness_check() {
  if (!node_.alive() || !view_.affiliated() || view_.is_clusterhead()) return;
  if (got_scheduled_update_) return;
  auto request = std::make_shared<UpdateRequestPayload>();
  request->sender = node_.id();
  request->cluster = view_.cluster()->id;
  request->epoch = epoch_;
  transport_.send(std::move(request));
}

void FdsAgent::broadcast_relay(const std::vector<NodeId>& reported_failed,
                               ReportId ack, ClusterId learned_from) {
  if (!node_.alive() || !view_.is_clusterhead()) return;
  std::vector<NodeId> news;
  log_.record(reported_failed, {timers_.now(), epoch_, node_.id()}, node_.id(),
              news);
  auto update = std::make_shared<HealthUpdatePayload>();
  update->cluster = view_.cluster()->id;
  update->sender = node_.id();
  update->epoch = epoch_;
  update->newly_failed = news;
  log_.known_failed(update->all_failed);
  update->learned_from = learned_from;
  if (ack.is_valid()) update->acks.push_back(ack);
  if (!news.empty()) {
    update->report = fresh_report_id();
    view_.remove_members(news);
  }
  broadcast_update(std::move(update));
}

void FdsAgent::broadcast_update(std::shared_ptr<HealthUpdatePayload> update) {
  std::shared_ptr<const HealthUpdatePayload> frozen = std::move(update);
  if (hooks_.on_update_sent) hooks_.on_update_sent(node_.id(), frozen);
  transport_.send(frozen);
}

void FdsAgent::note_alive(NodeId sender) {
  evidence_.heartbeats.insert(sender);
  if (skew_) skew_->heartbeat_seen_[sender] = timers_.now();
}

void FdsAgent::count_revert(RevertCause cause) {
  ++reverts_[cause];
  last_revert_epoch_ = epoch_;
  last_revert_cause_ = cause;
}

void FdsAgent::step_down(RevertCause cause,
                         const HealthUpdatePayload* applied) {
  count_revert(cause);
  view_.clear();
  node_.set_marked(false);
  if (adaptive_) adaptive_->reset();
  missed_updates_ = 0;
  got_scheduled_update_ = false;
  scheduled_update_.reset();
  if (applied != nullptr && hooks_.on_update_applied) {
    hooks_.on_update_applied(node_.id(), *applied);
  }
}

std::optional<FdsAgent::RevertCause> FdsAgent::apply_failures(
    const HealthUpdatePayload& update) {
  std::optional<RevertCause> step_down_for;
  const FailureLog::Entry entry{timers_.now(), update.epoch, update.sender};
  // Stays empty (never allocates) unless the update carries news for us.
  std::vector<NodeId> to_remove;
  auto learn = [&](NodeId f, bool fresh_news) {
    if (f == node_.id()) {
      // We were falsely detected. Re-subscribe by reverting to the unmarked
      // state: our next heartbeat acts as a membership subscription (F5).
      if (fresh_news) {
        if (skew_) {
          // The author has already dropped us from its roster. Keeping the
          // now-stale view would pin us to that cluster: re-admission offers
          // from any other head would be discarded as foreign. Step down
          // fully so whichever head answers our subscription can install us.
          // Every view install marks the node and only the branch below
          // unmarks one that keeps its view, so under skew an affiliated
          // node is marked: step_down counts exactly what that branch would.
          step_down_for = kRevertFreshSelfNews;
        } else if (node_.marked()) {
          count_revert(kRevertFreshSelfNews);
        }
        node_.set_marked(false);
      } else if (config_.recovery_enabled && node_.marked()) {
        // Stale failure news about ourselves while we think we are a marked
        // participant: the cluster reorganized while we were silent (a
        // freeze, or a takeover update we missed). Our view is stale — the
        // caller drops it so the next heartbeat re-runs affiliation.
#ifndef CFDS_MUTATION_DROP_SELF_RECONCILIATION
        step_down_for = kRevertStaleSelfNews;
#endif
      }
      return;
    }
    if (log_.record(f, entry)) to_remove.push_back(f);
  };
  for (NodeId f : update.newly_failed) learn(f, true);
  for (NodeId f : update.all_failed) learn(f, false);
  view_.remove_members(to_remove);
  return step_down_for;
}

void FdsAgent::handle_update(
    const std::shared_ptr<const HealthUpdatePayload>& update) {
  if (!view_.affiliated()) {
    // An unaffiliated node admitted via subscription installs a fresh view.
    const bool admitted_me =
        std::find(update->admitted.begin(), update->admitted.end(),
                  node_.id()) != update->admitted.end();
    if (admitted_me) {
      ClusterView fresh;
      fresh.id = update->cluster;
      fresh.clusterhead = update->sender;
      fresh.members = update->members_snapshot;
      view_.set_cluster(std::move(fresh));
      node_.set_marked(true);
      if (skew_) {
        // Failure records accumulated before (or between) affiliations are
        // scoped to clusters we no longer watch; in a shared broadcast
        // domain they can name nodes that are alive and well elsewhere.
        // Start from the new head's knowledge: apply_failures() below
        // relearns its all_failed list.
        log_.clear();
      }
    } else {
      return;
    }
  }
  if (update->cluster != view_.cluster()->id) return;  // foreign cluster

  if (config_.recovery_enabled && view_.is_clusterhead() &&
      update->sender != node_.id()) {
    // Every direct health update is authored by a node acting as this
    // cluster's head, so hearing one means a rival head is in radio contact
    // (two deputies that took over on opposite sides of a healed partition,
    // or a thawed head meeting its replacement). Section 3's election rule
    // arbitrates: the lowest NID keeps the cluster; the loser steps down,
    // drops its log, and re-subscribes via F5 — its former members follow
    // once their scheduled updates go missing.
#ifndef CFDS_MUTATION_SKIP_RIVAL_ARBITRATION
    if (update->sender.value() < node_.id().value()) {
      log_.clear();
      step_down(kRevertRivalHead, update.get());
    }
#endif
    return;
  }

  const bool scheduled =
      update->epoch == epoch_ &&
      (update->sender == view_.cluster()->clusterhead || update->takeover);

  if (config_.recovery_enabled && !scheduled) {
    // A same-cluster update from a head we do not follow — the other side of
    // a cluster split into disconnected components, each with its own acting
    // CH. Its failure news is not authoritative for this side (it believes
    // our whole side failed); applying it would make our log flip-flop
    // between the two heads' views every execution. Process it only if it
    // concerns us directly: an admission (that is how we join a side) or
    // failure news about ourselves (that is how a stale head steps down).
    const bool about_me =
        std::find(update->admitted.begin(), update->admitted.end(),
                  node_.id()) != update->admitted.end() ||
        std::find(update->newly_failed.begin(), update->newly_failed.end(),
                  node_.id()) != update->newly_failed.end() ||
        std::find(update->all_failed.begin(), update->all_failed.end(),
                  node_.id()) != update->all_failed.end();
    if (!about_me) return;
  }

  if (const std::optional<RevertCause> cause = apply_failures(*update)) {
    // The cluster believes we failed and has moved on: drop the stale view;
    // the next heartbeat re-subscribes us through the F5 admission path.
    step_down(*cause, update.get());
    return;
  }
  if (!update->departed.empty()) view_.remove_members(update->departed);
  if (update->takeover) view_.apply_takeover(update->sender);
  if (!update->admitted.empty()) {
    const bool admitted_me =
        std::find(update->admitted.begin(), update->admitted.end(),
                  node_.id()) != update->admitted.end();
    if (admitted_me) {
      if (config_.recovery_enabled && view_.is_clusterhead()) {
        // Another node admitted us as a plain member: our clusterhead role
        // predates a takeover we slept through (a thawed CH whose deputy
        // replaced it). Accept the demotion and install the author's view —
        // the cluster must not end up with two acting heads.
        ClusterView fresh;
        fresh.id = update->cluster;
        fresh.clusterhead = update->sender;
        fresh.members = update->members_snapshot;
        view_.set_cluster(std::move(fresh));
        log_.clear();
      }
      node_.set_marked(true);
    }
    if (config_.recovery_enabled) {
      // The CH erased these entries when it re-admitted the nodes; mirror
      // that here so the stale-snapshot guard below cannot re-remove a
      // freshly resurrected member.
      for (NodeId n : update->admitted) log_.erase(n);
    }
    view_.admit_members(update->admitted);
    // A snapshot from a CH with a staler failure log than ours could have
    // re-introduced members we already know to be gone.
    view_.remove_members_if([this](NodeId n) { return log_.knows(n); });
  }

  if (config_.recovery_enabled && scheduled && view_.affiliated() &&
      !view_.is_clusterhead()) {
    // The acting CH's cumulative failure list is authoritative for this
    // cluster: any entry of ours it no longer carries was refuted by a
    // re-admission whose update we missed.
    log_.retain(update->all_failed);
    if (!update->members_snapshot.empty()) {
      const auto& roster = update->members_snapshot;
#ifndef CFDS_MUTATION_DROP_SELF_RECONCILIATION
      if (std::find(roster.begin(), roster.end(), node_.id()) ==
          roster.end()) {
        // The acting CH does not count us as a member — we were removed
        // (or replaced by a takeover) while unreachable. Re-subscribe.
        step_down(kRevertRosterDropped, update.get());
        return;
      }
#endif
      view_.sync_members(roster);
    }
  }

  if (adaptive_ && scheduled && !view_.is_clusterhead()) {
    // Adopt the CH-announced tune level directly. The CH ramps its
    // announcement one step per epoch, so even when one update is lost the
    // member's level lags the CH's by at most one.
    adaptive_->tune_level_ = update->tune_level;
  }

  if (scheduled && !got_scheduled_update_) {
    got_scheduled_update_ = true;
    scheduled_update_ = update;
    // Proactive post-takeover coverage (Figure 2(a)): forward to members we
    // heard in R-1 that the new CH did not hear.
    if (update->takeover) {
      FlatSet<NodeId> covered;
      covered.assign(update->sender_heard.begin(), update->sender_heard.end());
      for (NodeId heard : evidence_.heartbeats) {
        if (heard == update->sender || covered.contains(heard)) continue;
        if (!view_.cluster()->is_member(heard)) continue;
        schedule_peer_forward(heard);
      }
    }
  }
  if (hooks_.on_update_applied) {
    hooks_.on_update_applied(node_.id(), *update);
  }
}

void FdsAgent::schedule_peer_forward(NodeId target) {
  if (!config_.peer_forwarding) return;
  if (acked_requesters_.contains(target)) return;
  if (pending_forwards_.contains(target) &&
      pending_forwards_[target].pending()) {
    return;
  }
  const SimTime wait =
      peer_waiting_period(node_.id(), energy_fraction(), t_hop_);
  pending_forwards_[target] = timers_.schedule_after(wait, [this, target] {
    if (!node_.alive() || acked_requesters_.contains(target)) return;
    if (!scheduled_update_) return;
    auto forward = std::make_shared<UpdateForwardPayload>();
    forward->forwarder = node_.id();
    forward->target = target;
    forward->update = scheduled_update_;
    transport_.send(std::move(forward), target);
  });
}

// LINT-ROUND-PATH: per-epoch for every agent; allocation-free in steady
// state (tests/test_steady_state_alloc.cpp). Failure-path allocations are
// baseline burndown debt.
void FdsAgent::on_frame(const Reception& reception) {
  if (!node_.alive()) return;

  if (const auto* hb = payload_cast<HeartbeatPayload>(reception.payload)) {
    note_alive(hb->sender);
    if (!hb->marked) unmarked_heard_.insert(hb->sender);
    return;
  }

  if (const auto* leave = payload_cast<LeaveNoticePayload>(reception.payload)) {
    // The departing node is alive right now (evidence) but will be removed
    // from the membership at the next update, not reported failed.
    note_alive(leave->sender);
    leaves_heard_.insert(leave->sender);
    return;
  }

  if (const auto* notice =
          payload_cast<SleepNoticePayload>(reception.payload)) {
    // The notice itself proves the sender alive this execution.
    note_alive(notice->sender);
    notices_heard_[notice->sender] = notice->epochs;
    // +1: the first exemption is consumed by this very execution (the
    // sleeper has already powered down and sends no digest), leaving
    // `epochs` exemptions for the announced window itself.
    sleep_exemptions_[notice->sender] = notice->epochs + 1;
    return;
  }

  if (const auto* digest = payload_cast<DigestPayload>(reception.payload)) {
    // Digests feed the CH's rule and the DCH's CH-failure rule; other
    // members don't need them, so skip the bookkeeping there.
    if (view_.affiliated() && digest->cluster == view_.cluster()->id &&
        (view_.is_clusterhead() || view_.is_deputy())) {
      evidence_.digest_from(digest->sender)
          .assign(digest->heard.begin(), digest->heard.end());
      if (skew_) skew_->digest_seen_[digest->sender] = timers_.now();
      // Relayed sleep notices: grant (or extend) exemptions for sleepers
      // whose own notice we missed.
      for (const auto& [sleeper, epochs] : digest->sleeping) {
        auto& exemption = sleep_exemptions_[sleeper];
        exemption = std::max(exemption, epochs + 1);
        // The notice also proves the sleeper was alive in R-1.
        note_alive(sleeper);
      }
    }
    return;
  }

  if (auto update = payload_cast_shared<HealthUpdatePayload>(reception.payload)) {
    handle_update(update);
    return;
  }

  if (const auto* request =
          payload_cast<UpdateRequestPayload>(reception.payload)) {
    if (!view_.affiliated() || request->cluster != view_.cluster()->id) return;
    if (request->epoch != epoch_ || !got_scheduled_update_) return;
    if (!scheduled_update_ || scheduled_update_->sender == node_.id()) return;
    schedule_peer_forward(request->sender);
    return;
  }

  if (const auto* forward =
          payload_cast<UpdateForwardPayload>(reception.payload)) {
    if (forward->target != node_.id()) return;
    handle_update(forward->update);
    if (forward->update->epoch == epoch_) {
      if (!config_.recovery_enabled) {
        // Under crash-recovery semantics handle_update just decided whether
        // this counts as our cluster's scheduled update; a forwarded update
        // from a CH we no longer follow must not mask a missing one, or the
        // re-affiliation counter would never fire.
        got_scheduled_update_ = true;
        if (!scheduled_update_) scheduled_update_ = forward->update;
      }
      if (got_scheduled_update_ && !sent_ack_) {
        sent_ack_ = true;
        auto ack = std::make_shared<UpdateAckPayload>();
        ack->sender = node_.id();
        ack->epoch = epoch_;
        transport_.send(std::move(ack));
      }
    }
    return;
  }

  if (const auto* ack = payload_cast<UpdateAckPayload>(reception.payload)) {
    if (ack->epoch != epoch_) return;
    acked_requesters_.insert(ack->sender);
    if (const auto it = pending_forwards_.find(ack->sender);
        it != pending_forwards_.end()) {
      it->second.cancel();
    }
    return;
  }

  if (auto cp = payload_cast_shared<CheckpointPayload>(reception.payload)) {
    if (checkpoints_) handle_checkpoint(cp);
    return;
  }
}

// --- Opt-in blocks --------------------------------------------------------
// Code that runs only when its block exists (fds/agent.h): features beyond
// Section 4.2, each behind its FdsConfig flag.

void FdsAgent::Adaptive::announce(HealthUpdatePayload& update) {
  const std::uint32_t worst = estimator_.max_loss_pm();
  std::uint8_t target = 4;
  if (worst < 50) {
    target = 0;
  } else if (worst < 150) {
    target = 1;
  } else if (worst < 300) {
    target = 2;
  } else if (worst < 450) {
    target = 3;
  }
  if (target > tune_level_) {
    ++tune_level_;
  } else if (target < tune_level_) {
    --tune_level_;
  }
  update.cluster_loss_pm = static_cast<std::uint16_t>(worst);
  update.tune_level = tune_level_;
}

void FdsAgent::SkewTolerance::prune(RoundEvidence& evidence, SimTime cutoff) {
  // A cutoff of one full execution plus slack lets an on-time
  // previous-epoch frame (age ~phi at the boundary) deliberately SURVIVE
  // into the next execution, so a node is judged silent only after missing
  // two executions in a row. On a real transport a single miss is
  // routinely benign — one lost datagram, or one heartbeat delivered late
  // by a scheduling stall — and each false detection costs a full
  // revert/re-subscribe/re-admit cycle; requiring consecutive misses
  // suppresses that quadratically. The price is one extra execution of
  // detection latency, paid only in service mode (the simulator's
  // hard-boundary path never prunes).
  std::vector<NodeId> stale;
  for (NodeId heard : evidence.heartbeats) {
    const auto it = heartbeat_seen_.find(heard);
    if (it == heartbeat_seen_.end() || it->second < cutoff) {
      stale.push_back(heard);
    }
  }
  for (NodeId n : stale) {
    evidence.heartbeats.erase(n);
    heartbeat_seen_.erase(n);
  }
  stale.clear();
  for (const auto& [sender, slot] : evidence.digest_index()) {
    const auto it = digest_seen_.find(sender);
    if (it == digest_seen_.end() || it->second < cutoff) {
      stale.push_back(sender);
    }
  }
  for (NodeId n : stale) {
    evidence.erase_digest(n);
    digest_seen_.erase(n);
  }
  evidence.ch_update_heard = false;
}

void FdsAgent::emit_checkpoint() {
  if (!node_.alive() || !view_.is_clusterhead()) return;
  auto cp = std::make_shared<CheckpointPayload>();
  cp->cluster = view_.cluster()->id;
  cp->sender = node_.id();
  cp->epoch = epoch_;
  cp->seq = ++checkpoints_->checkpoint_seq_;
  cp->clusterhead = view_.cluster()->clusterhead;
  cp->members = view_.cluster()->members;
  cp->deputies = view_.cluster()->deputies;
  log_.known_failed(cp->failed);
  // The author's own copy IS its stable storage (its radio never hears its
  // own broadcast); the broadcast replicates it to the deputies.
  checkpoints_->stable_checkpoint_ = cp;
  transport_.send(std::move(cp));
}

void FdsAgent::handle_checkpoint(
    const std::shared_ptr<const CheckpointPayload>& cp) {
  if (!view_.affiliated() || cp->cluster != view_.cluster()->id) return;
  // Minimum-process: only the CH and its deputies retain cluster state.
  // The checkpoint's own deputy list also counts — a deputy promoted by the
  // very roster this checkpoint carries may not see itself in its (older)
  // local view yet.
  const bool holder =
      view_.is_clusterhead() || view_.is_deputy() ||
      std::find(cp->deputies.begin(), cp->deputies.end(), node_.id()) !=
          cp->deputies.end();
  if (!holder) return;
  // Keep the freshest: newest epoch wins; the sequence number breaks ties
  // within an epoch (a takeover emits with a fresh head's counter).
  std::shared_ptr<const CheckpointPayload>& stored =
      checkpoints_->stable_checkpoint_;
#ifndef CFDS_MUTATION_NO_CHECKPOINT_SEQ_GUARD
  if (stored && (cp->epoch < stored->epoch ||
                 (cp->epoch == stored->epoch && cp->seq < stored->seq))) {
    return;
  }
#endif
  stored = cp;
}

void FdsAgent::restore_from_checkpoint() {
  checkpoints_->restored_from_checkpoint_ = false;
  if (!checkpoints_->stable_checkpoint_) return;
  const CheckpointPayload& cp = *checkpoints_->stable_checkpoint_;
  const bool named_ch = cp.clusterhead == node_.id();
  const bool named_dch =
      std::find(cp.deputies.begin(), cp.deputies.end(), node_.id()) !=
      cp.deputies.end();
  if (!named_ch && !named_dch) return;
  ClusterView fresh;
  fresh.id = cp.cluster;
  fresh.clusterhead = cp.clusterhead;
  fresh.members = cp.members;
  fresh.deputies = cp.deputies;
  view_.set_cluster(std::move(fresh));
  node_.set_marked(true);
  // The checkpointed failure log may be stale (a member re-admitted after
  // checkpoint time): the recovery_enabled reconciliation rules heal that —
  // stale self-news steps the zombie entry's owner down, its re-subscription
  // refutes the record everywhere the admission update lands.
  for (NodeId f : cp.failed) {
    if (f == node_.id()) continue;
    log_.record(f, {timers_.now(), cp.epoch, cp.sender});
  }
  checkpoints_->restored_from_checkpoint_ = true;
}

FdsService::FdsService(Network& network, std::vector<MembershipView*> views,
                       FdsConfig config)
    : network_(network), config_(config) {
  const SimTime t_hop = network_.channel().config().t_hop;
  config_.validate(t_hop);
  agents_.reserve(network_.nodes().size());
  active_.reserve(network_.nodes().size());
  for (Node* node : network_.nodes()) {
    CFDS_EXPECT(node->id().value() < views.size() &&
                    views[node->id().value()] != nullptr,
                "missing membership view");
    agents_.push_back(std::make_unique<FdsAgent>(
        *node, *views[node->id().value()], *node, network_.simulator(), t_hop,
        config_, hooks_));
    if (node->alive()) active_.push_back(std::uint32_t(agents_.size() - 1));
    watch_lifecycle(*node, agents_.size() - 1);
  }
}

void FdsService::watch_lifecycle(Node& node, std::size_t idx) {
  // Crash/recover events arrive as their own simulator events, never from
  // inside a round sweep (fault injector, bench harnesses, world ops), so
  // editing active_ here cannot invalidate an in-flight sweep.
  node.add_lifecycle_handler([this, idx](bool alive) {
    const auto it = std::lower_bound(active_.begin(), active_.end(),
                                     std::uint32_t(idx));
    const bool present = it != active_.end() && *it == std::uint32_t(idx);
    if (alive && !present) {
      active_.insert(it, std::uint32_t(idx));
    } else if (!alive && present) {
      active_.erase(it);
    }
  });
}

std::vector<FdsAgent*> FdsService::agents() {
  std::vector<FdsAgent*> out;
  out.reserve(agents_.size());
  for (auto& a : agents_) out.push_back(a.get());
  return out;
}

FdsAgent& FdsService::agent_for(NodeId id) {
  // Agents are created in NID order (construction walks network_.nodes(),
  // adoption appends freshly assigned NIDs), so the common case is a direct
  // index; the scan only backs up exotic harnesses.
  const std::size_t idx = id.value();
  if (idx < agents_.size() && agents_[idx]->id() == id) return *agents_[idx];
  for (auto& a : agents_) {
    if (a->id() == id) return *a;
  }
  CFDS_EXPECT(false, "no FDS agent for node id");
  __builtin_unreachable();
}

FdsAgent& FdsService::adopt_node(Node& node, MembershipView& view) {
  agents_.push_back(std::make_unique<FdsAgent>(
      node, view, node, network_.simulator(),
      network_.channel().config().t_hop, config_, hooks_));
  if (node.alive()) {
    active_.push_back(std::uint32_t(agents_.size() - 1));
  }
  watch_lifecycle(node, agents_.size() - 1);
  return *agents_.back();
}

void FdsService::schedule_epoch(std::uint64_t epoch, SimTime t) {
  const SimTime t_hop = network_.channel().config().t_hop;
  if (config_.max_clock_skew == SimTime::zero() && !skew_provider_) {
    // Common case: one shared schedule, one event per row, visiting agents
    // in NID order. begin_epoch reaches dead agents too, so a node
    // recovering later stamps the execution it actually rejoined. The round
    // actions visit only active_, read at fire time: idle (dead) nodes cost
    // nothing per round, which is what keeps mostly-failed megascale worlds
    // cheap, and a node recovering between rounds rejoins mid-epoch.
    schedule_execution(network_.simulator(), t, t_hop, epoch,
                       [this](auto&& fn, bool everyone) {
                         if (everyone) {
                           for (auto& a : agents_) fn(*a);
                           return;
                         }
                         for (std::uint32_t idx : active_) fn(*agents_[idx]);
                       });
    return;
  }
  // Skewed clocks: each agent runs its rounds shifted by its own fixed
  // offset in [0, max_clock_skew) — derived from its NID so the offset is
  // stable across epochs, like a real mis-set clock. A skew provider (the
  // fault injector's ClockDriftRamp) adds a per-epoch offset on top.
  for (auto& agent : agents_) {
    SimTime skew = SimTime::zero();
    if (config_.max_clock_skew != SimTime::zero()) {
      std::uint64_t sm = agent->id().value() ^ 0x5CE4;
      const double frac = double(splitmix64(sm) >> 11) * 0x1.0p-53;
      skew = SimTime::micros(
          std::int64_t(frac * double(config_.max_clock_skew.as_micros())));
    }
    if (skew_provider_) {
      const SimTime extra = skew_provider_(agent->id(), epoch);
      if (extra.as_micros() > 0) skew = skew + extra;
    }
    schedule_execution(network_.simulator(), t + skew, t_hop, epoch,
                       single_agent(*agent));
  }
}

SimTime FdsService::run_epochs(std::uint64_t count, SimTime start) {
  for (std::uint64_t k = 0; k < count; ++k) {
    schedule_epoch(k, start + std::int64_t(k) * config_.heartbeat_interval);
  }
  const SimTime end =
      start + std::int64_t(count) * config_.heartbeat_interval;
  network_.simulator().run_until(end);
  return end;
}

}  // namespace cfds
