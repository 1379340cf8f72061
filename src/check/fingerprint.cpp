// Canonical serialization of protocol state (see fingerprint.h for the
// contract). This TU is the single source of truth the
// `state-outside-fingerprint` lint rule checks member coverage against:
// reference every member of a fingerprinted class here, in code or in an
// FP-EXEMPT comment.

#include "check/fingerprint.h"

#include <cstdint>
#include <vector>

#include "cluster/membership.h"
#include "cluster/roles.h"
#include "common/expect.h"
#include "fds/agent.h"
#include "fds/detector.h"
#include "fds/failure_log.h"
#include "fds/link_quality.h"
#include "net/node.h"
#include "radio/payload.h"
#include "transport/wire.h"

namespace cfds::check {

namespace {

// Field tags keep adjacent empty sequences from canceling: every section
// of the serialization opens with a distinct constant.
enum Tag : std::uint64_t {
  kTagNode = 0x01,
  kTagView = 0x02,
  kTagLog = 0x03,
  kTagCounters = 0x04,
  kTagRoundState = 0x05,
  kTagEvidence = 0x06,
  kTagSeen = 0x07,
  kTagForwards = 0x08,
  kTagEstimator = 0x09,
  kTagCheckpoint = 0x0a,
  kTagCluster = 0x0b,
  kTagPayload = 0x0c,
  kTagAbsent = 0x0d,
  kTagAdaptive = 0x0e,
};

void mix_ids(Hasher& h, const std::vector<NodeId>& ids) {
  h.mix(ids.size());
  for (NodeId n : ids) h.mix(n.value());
}

template <typename Set>
void mix_id_set(Hasher& h, const Set& set) {
  h.mix(set.size());
  for (NodeId n : set) h.mix(n.value());
}

}  // namespace

void StateFingerprinter::mix_cluster(Hasher& h, const ClusterView& view) {
  h.mix(kTagCluster);
  h.mix(view.id.value());
  h.mix(view.clusterhead.value());
  mix_ids(h, view.members);
  mix_ids(h, view.deputies);
  h.mix(view.links.size());
  for (const GatewayLink& link : view.links) {
    h.mix(link.neighbor_cluster.value());
    h.mix(link.neighbor_clusterhead.value());
    h.mix(link.gateway.value());
    mix_ids(h, link.backups);
  }
}

void StateFingerprinter::mix_membership(Hasher& h, const MembershipView& view) {
  // MembershipView: self_ is mixed via self(); cluster_ via cluster().
  h.mix(kTagView);
  h.mix(view.self().value());
  if (view.cluster().has_value()) {
    mix_cluster(h, *view.cluster());
  } else {
    h.mix(kTagAbsent);
  }
}

void StateFingerprinter::mix_failure_log(Hasher& h, const FailureLog& log) {
  // FailureLog: entries_ (a flat map, ascending by NID) is mixed through
  // known_failed()/entry().
  // FP-EXEMPT(Entry::learned_at) / FP-EXEMPT(Entry::epoch): bookkeeping of
  // WHEN the news arrived; no protocol decision reads them back (reports
  // and refutations compare NIDs and incarnations, never log timestamps).
  h.mix(kTagLog);
  std::vector<NodeId> failed;
  log.known_failed(failed);
  h.mix(failed.size());
  for (NodeId n : failed) {
    h.mix(n.value());
    const FailureLog::Entry* entry = log.entry(n);
    CFDS_EXPECT(entry != nullptr, "known_failed entry vanished");
    h.mix(entry->reported_by.value());
  }
}

void StateFingerprinter::mix_evidence(Hasher& h, const RoundEvidence& ev) {
  h.mix(kTagEvidence);
  mix_id_set(h, ev.heartbeats);
  // RoundEvidence's slot table: digest_index_ is mixed sender-by-sender in
  // ascending order with each sender's resolved set, which covers
  // digest_slots_ too. FP-EXEMPT(free_slots_) / FP-EXEMPT(used_) /
  // FP-EXEMPT(slot_watermark_): slot recycling bookkeeping — which physical
  // slot holds a sender's set (and how much capacity it carries) is
  // invisible to the protocol (only the sender -> set mapping is read).
  h.mix(ev.digest_index().size());
  for (const auto& [sender, slot] : ev.digest_index()) {
    h.mix(sender.value());
    mix_id_set(h, ev.digest_slot(slot));
  }
  h.mix(std::uint64_t{ev.ch_update_heard});
}

void StateFingerprinter::mix_estimator(Hasher& h,
                                       const LinkQualityEstimator& est) {
  h.mix(kTagEstimator);
  h.mix(est.links_.size());
  for (const auto& [member, link] : est.links_) {
    h.mix(member.value());
    h.mix(link.loss_pm);
    h.mix(link.run_loss_pm);
    h.mix(link.consecutive_missed);
  }
}

void StateFingerprinter::mix_payload(Hasher& h, const Payload& payload) {
  h.mix(kTagPayload);
  // One encode buffer per thread, cleared before each frame: hashing a
  // payload allocates only when it is the longest this thread has seen.
  thread_local std::vector<std::uint8_t> bytes;
  bytes.clear();
  const bool encoded =
      wire::encode_frame(NodeId::invalid(), NodeId::invalid(), payload, &bytes);
  CFDS_EXPECT(encoded, "fingerprinted payload has no wire encoding");
  h.mix_bytes(bytes.data(), bytes.size());
}

void StateFingerprinter::mix_agent(Hasher& h, const FdsAgent& a) {
  // --- Identity and node liveness ---------------------------------------
  // FP-EXEMPT(transport_) / FP-EXEMPT(timers_): infrastructure references;
  // their state is the harness's, not the agent's (pending timers are
  // mixed by the world via CheckTimerService). The hook block reference is
  // carried in the lint baseline (docs/MODEL_CHECKING.md) as the worked
  // example of the rule's burndown workflow.
  // FP-EXEMPT(t_hop_) / FP-EXEMPT(config_): run constants, identical in
  // every state of one exploration.
  h.mix(kTagNode);
  h.mix(a.node_.id().value());
  h.mix(std::uint64_t{a.node_.alive()});
  h.mix(std::uint64_t{a.node_.marked()});
  h.mix(a.node_.incarnation());
  // FP-EXEMPT(Node::energy): CheckTransport bypasses the Radio, so its
  // traffic counters stay zero and remaining energy is a run constant
  // (this also pins peer_waiting_period to a pure function of the NID).

  mix_membership(h, a.view_);
  mix_failure_log(h, a.log_);

  // --- Epoch counters and per-epoch collections -------------------------
  h.mix(kTagCounters);
  h.mix(a.epoch_);
  h.mix(a.report_counter_);
  h.mix(a.missed_updates_);
  h.mix(std::uint64_t{a.left_});
  h.mix(a.sleep_exemptions_.size());
  for (const auto& [node, epochs] : a.sleep_exemptions_) {
    h.mix(node.value());
    h.mix(epochs);
  }
  mix_id_set(h, a.leaves_heard_);
  h.mix(a.notices_heard_.size());
  for (const auto& [node, epochs] : a.notices_heard_) {
    h.mix(node.value());
    h.mix(epochs);
  }
  // FP-EXEMPT(heartbeats_sent_) FP-EXEMPT(unmarked_sent_)
  // FP-EXEMPT(last_unmarked_epoch_) FP-EXEMPT(reverts_)
  // FP-EXEMPT(last_revert_epoch_) FP-EXEMPT(last_revert_cause_):
  // lifetime diagnostics for service-mode post-mortems; the header
  // documents them as "never protocol inputs" and no round logic reads
  // them.

  // --- Round evidence and completeness state ----------------------------
  h.mix(kTagRoundState);
  mix_evidence(h, a.evidence_);
  mix_id_set(h, a.unmarked_heard_);
  h.mix(std::uint64_t{a.got_scheduled_update_});
  if (a.scheduled_update_) {
    mix_payload(h, *a.scheduled_update_);
  } else {
    h.mix(kTagAbsent);
  }
  h.mix(kTagForwards);
  mix_id_set(h, a.acked_requesters_);
  h.mix(a.pending_forwards_.size());
  for (const auto& [target, handle] : a.pending_forwards_) {
    h.mix(target.value());
    h.mix(std::uint64_t{handle.pending()});
  }
  h.mix(std::uint64_t{a.deputy_timer_.pending()});
  h.mix(std::uint64_t{a.sent_ack_});

  // --- Opt-in blocks: each under its own tag, kTagAbsent when off -------
  h.mix(kTagAdaptive);
  if (a.adaptive_) {
    mix_estimator(h, a.adaptive_->estimator_);
    h.mix(std::uint64_t{a.adaptive_->tune_level_});
  } else {
    h.mix(kTagAbsent);
  }
  h.mix(kTagCheckpoint);
  if (a.checkpoints_) {
    const auto& cp = *a.checkpoints_;
    if (cp.stable_checkpoint_) {
      mix_payload(h, *cp.stable_checkpoint_);
    } else {
      h.mix(kTagAbsent);
    }
    h.mix(cp.checkpoint_seq_);
    h.mix(std::uint64_t{cp.restored_from_checkpoint_});
  } else {
    h.mix(kTagAbsent);
  }
  h.mix(kTagSeen);
  if (a.skew_) {
    for (const auto* seen : {&a.skew_->heartbeat_seen_,
                             &a.skew_->digest_seen_}) {
      h.mix(seen->size());
      for (const auto& [node, when] : *seen) {
        h.mix(node.value());
        h.mix(std::uint64_t(when.as_micros()));
      }
    }
  } else {
    h.mix(kTagAbsent);
  }
  // FP-EXEMPT(heartbeat_pool_) / FP-EXEMPT(digest_pool_) /
  // FP-EXEMPT(update_pool_) / FP-EXEMPT(expected_scratch_): send-side
  // buffers, fully overwritten before every emission and never read as
  // protocol inputs (the header documents the reuse contract).
}

}  // namespace cfds::check
