// FDS tuning knobs.

#pragma once

#include "common/ids.h"
#include "common/sim_time.h"
#include "fds/detector.h"

namespace cfds {

/// After this many consecutive executions without receiving the scheduled
/// health-status update (directly or via peers), a member concludes it has
/// lost contact with its cluster — it drifted away (mobility), or its CH
/// was replaced by a deputy it cannot hear — and reverts to the unmarked
/// state so its next heartbeat re-subscribes it to whatever cluster hears
/// it (feature F5).
inline constexpr std::uint32_t kReaffiliateAfterMissed = 3;

struct FdsConfig {
  /// Heartbeat interval phi: time between consecutive FDS executions.
  /// Must be at least 7 * Thop so that all rounds plus peer forwarding fit
  /// strictly inside one interval.
  SimTime heartbeat_interval = SimTime::seconds(10);

  /// Evidence policy; kFull is the paper's rule (ablations use the others).
  RuleMode rule_mode = RuleMode::kFull;

  /// Intra-cluster peer forwarding of missed health-status updates
  /// (Section 4.2, "Intra-Cluster Completeness Enhancement").
  bool peer_forwarding = true;

  /// Scopes F5 admission: when set, a clusterhead admits an unmarked
  /// subscriber only if the predicate accepts it. In simulation the radio
  /// range already scopes who hears a subscription heartbeat; service mode
  /// runs in one broadcast domain where every clusterhead hears every
  /// re-subscription, and without this filter they would all admit the
  /// node at once (the service layer restricts admission to the directory
  /// block instead). Null admits anyone heard.
  bool (*admit_filter)(void* ctx, NodeId subscriber) = nullptr;
  void* admit_filter_ctx = nullptr;

  /// Treat epoch boundaries as soft, for real clocks. The protocol's
  /// per-execution state (round evidence, subscription heartbeats) is
  /// normally wiped by begin_epoch, which assumes no frame of execution k
  /// ever arrives before the receiver's own begin_epoch(k) — true in the
  /// simulator (synchronized clocks, in-window delivery), false on a real
  /// transport where clock skew or scheduler lateness lets a neighbour's
  /// R-1 heartbeat land first. The phase error is persistent, so a wiped
  /// neighbour is wiped EVERY epoch: it is declared failed each execution,
  /// steps down, re-subscribes, and oscillates forever. When set:
  ///  - begin_epoch prunes round evidence by age (entries older than
  ///    phi + Thop are dropped) instead of clearing it. Early arrivals
  ///    survive the boundary, and so does the previous execution's
  ///    evidence: a node is judged silent only after missing two
  ///    executions in a row, which quadratically suppresses the false
  ///    detections that single lost or stall-delayed datagrams would
  ///    otherwise cause — at the price of one extra execution of
  ///    detection latency.
  ///  - an acting clusterhead carries unheard subscription heartbeats
  ///    across the boundary and consumes them at R-3 instead: each
  ///    subscription is honoured exactly once, at most one epoch late
  ///    (subscriptions have no digest cover, so unlike member liveness
  ///    there is no second chance).
  ///  - fresh failure news about this node steps it down fully (view
  ///    dropped) instead of only unmarking it. The author has already
  ///    removed the node from its roster; keeping the view would pin the
  ///    node to that cluster and make it discard re-admission offers from
  ///    every other head as foreign — a permanent subscribe-forever limbo
  ///    when several clusters share one broadcast domain.
  ///  - installing a fresh view on admission resets the failure log: old
  ///    records are scoped to clusters this node no longer watches and may
  ///    name nodes alive elsewhere in the shared domain; the new head's
  ///    cumulative list is relearned from the same update.
  /// Tolerates relative phase error up to phi/2.
  bool tolerate_epoch_skew = false;

  /// When true, the agent emits no bare heartbeat in fds.R-1; another layer
  /// (e.g. the aggregation service, whose measurement frames derive from
  /// HeartbeatPayload) supplies the heartbeats instead — Section 6's
  /// "message sharing" between failure detection and data aggregation.
  bool external_heartbeats = false;

  /// Relay overheard sleep notices inside digests, so a notice whose direct
  /// transmission to the CH is lost still arrives via any member whose
  /// digest lands — spatial redundancy for the sleep extension.
  bool relay_sleep_notices = true;

  /// Per-node clock skew bound: each node's round actions are delayed by a
  /// fixed NID-derived draw from [0, max_clock_skew). Zero models the
  /// paper's assumption that "the clock rate on each host is close to
  /// accurate"; raising it stress-tests that assumption.
  SimTime max_clock_skew = SimTime::zero();

  /// Crash-recovery extension (beyond the paper's fail-stop model, default
  /// off so the baseline reproduces the paper exactly). When enabled:
  ///  - a node admitted via F5 subscription has its failure-log entry erased
  ///    everywhere the admission update lands (re-admission refutes the
  ///    stale record — a resurrected node must not stay reported failed);
  ///  - a marked node that hears stale failure news about itself (it appears
  ///    in `all_failed` without being in `newly_failed`) concludes the
  ///    cluster moved on while it was silent — it drops its stale view and
  ///    reverts to unmarked so its next heartbeat re-subscribes it (the
  ///    thawed-after-freeze / zombie-CH step-down rule);
  ///  - a CH re-admits current members whose heartbeat arrives unmarked
  ///    (nodes that lost their view to a crash keep their membership slot
  ///    but need the snapshot to reinstall it).
  /// See docs/FAULTS.md.
  bool recovery_enabled = false;

  /// Self-tuning (accrual) detection, default off so the baseline
  /// reproduces the paper's static rule exactly. When enabled:
  ///  - deciding nodes maintain a per-member LinkQualityEstimator from the
  ///    same evidence the detection rule consumes, and judge a silent
  ///    member failed only once its accrued suspicion (consecutive misses
  ///    weighted by estimated loss rate) reaches accrual_threshold_milli —
  ///    identical latency over clean links, extra patience over lossy ones;
  ///  - the CH announces its worst per-member loss estimate and a derived
  ///    tune level (0..4) on every scheduled R-3 update. The announced
  ///    level ramps by at most one step per epoch, so members and CH never
  ///    disagree by more than one level even across a lost update;
  ///  - members scale their re-affiliation patience by the announced tune
  ///    level (kReaffiliateAfterMissed + level missed updates), so a
  ///    congested cluster does not shed members over transient loss.
  /// See docs/ADAPTIVE.md.
  bool adaptive_enabled = false;

  /// Suspicion level at which a silent member is declared failed, in
  /// milli-units of accrued surprisal (-log10 of the probability that an
  /// alive member with the estimated loss rate stayed silent this long).
  /// 1500 declares after one miss on a clean link (1% floor: 2000 milli)
  /// and after three on a 30% link (523 milli each).
  std::uint32_t accrual_threshold_milli = 1500;

  /// Checkpointed CH/DCH recovery (minimum-process coordinated
  /// checkpointing, after arXiv:1111.2208), default off. When enabled, an
  /// acting CH broadcasts a CheckpointPayload — roster, deputies, failure
  /// log — every checkpoint_interval_epochs; only the CH and its DCHs
  /// retain the freshest checkpoint (stable storage survives the crash).
  /// A recovering CH/DCH named by its stored checkpoint restores the view
  /// and failure log from it and reconciles via the recovery_enabled rules
  /// instead of cold-rejoining as an unmarked subscriber. Requires
  /// recovery_enabled for the reconciliation rules. See docs/ADAPTIVE.md.
  bool checkpoint_enabled = false;

  /// Epochs between checkpoint broadcasts by an acting CH.
  std::uint32_t checkpoint_interval_epochs = 2;

  /// Aborts (CFDS_EXPECT) unless the configuration satisfies the documented
  /// constraints against one-hop bound `t_hop`:
  ///   - heartbeat_interval (phi) >= 7 * t_hop, so all rounds plus peer
  ///     forwarding fit strictly inside one interval;
  ///   - max_clock_skew <= phi / 2, the bound tolerate_epoch_skew absorbs;
  ///   - adaptive_enabled => accrual_threshold_milli > 0;
  ///   - checkpoint_enabled => checkpoint_interval_epochs > 0 and
  ///     recovery_enabled.
  /// Every bench/tool entry point calls this before running.
  void validate(SimTime t_hop) const;
  /// The first of those constraints the configuration breaks, as the
  /// message validate() aborts with, or nullptr when it satisfies them all.
  /// Tools that take the parameters as flags report it as a usage error.
  [[nodiscard]] const char* violation(SimTime t_hop) const;
};

}  // namespace cfds
