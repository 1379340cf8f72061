#include "intercluster/forwarder.h"

#include <algorithm>

#include "common/expect.h"

namespace cfds {
namespace {

/// Failure set carried by a report: the historical NIDs plus each newly
/// detected one they lack, ascending.
std::vector<NodeId> merged_failures(const HealthUpdatePayload& update) {
  std::vector<NodeId> failed;
  failed.reserve(update.all_failed.size() + update.newly_failed.size());
  failed.assign(update.all_failed.begin(), update.all_failed.end());
  std::sort(failed.begin(), failed.end());
  for (NodeId f : update.newly_failed) {
    const auto it = std::lower_bound(failed.begin(), failed.end(), f);
    if (it == failed.end() || *it != f) failed.insert(it, f);
  }
  return failed;
}

}  // namespace

ForwarderAgent::ForwarderAgent(Node& node, MembershipView& view, FdsAgent& fds,
                               Transport& transport, TimerService& timers,
                               SimTime t_hop, const ForwarderConfig& config,
                               ForwarderStats& stats)
    : node_(node),
      view_(view),
      fds_(fds),
      transport_(transport),
      timers_(timers),
      t_hop_(t_hop),
      config_(config),
      stats_(stats) {
  transport_.add_frame_handler(
      [](void* self, const Reception& reception) {
        static_cast<ForwarderAgent*>(self)->on_frame(reception);
      },
      this);
}

bool ForwarderAgent::acked(ReportId report, ClusterId by) const {
  return acks_seen_.contains({report, by});
}

void ForwarderAgent::on_own_update_sent(
    const std::shared_ptr<const HealthUpdatePayload>& update) {
  if (!node_.alive() || !view_.is_clusterhead()) return;
  if (!update->report.is_valid()) return;  // no news, no forwarding
  for (const GatewayLink& link : view_.cluster()->links) {
    if (link.neighbor_cluster == update->learned_from) continue;  // damping
    if (!link.gateway.is_valid()) continue;  // link lost all its gateways
    arm_ch_watch(update, link.neighbor_cluster, kMaxChRetransmits);
  }
}

void ForwarderAgent::arm_ch_watch(
    const std::shared_ptr<const HealthUpdatePayload>& update,
    ClusterId dest_cluster, int attempts_left) {
  timers_.schedule_after(
      2 * t_hop_,
      [this, update, dest_cluster, attempts_left] {
        if (!node_.alive()) return;
        // A recovery election may have cleared the view (or handed the
        // cluster to a rival head) while this watch was pending; a node
        // that is no longer the CH must not retransmit on its behalf —
        // and its former view's links no longer exist to consult.
        if (!view_.is_clusterhead()) return;
        if (forwards_seen_.contains({update->report, dest_cluster})) return;
        if (attempts_left <= 0) return;
        // Figure 3: no forwarding overheard — assume the first transmission
        // failed and retransmit, addressed to the link's current gateway.
        const GatewayLink* link = nullptr;
        for (const GatewayLink& l : view_.cluster()->links) {
          if (l.neighbor_cluster == dest_cluster) link = &l;
        }
        if (link == nullptr || !link->gateway.is_valid()) return;
        stats_.ch_retransmissions++;
        transport_.send(update, link->gateway);
        arm_ch_watch(update, dest_cluster, attempts_left - 1);
      });
}

void ForwarderAgent::consider_link(
    const std::shared_ptr<const HealthUpdatePayload>& update, std::size_t rank,
    std::size_t n_backups, ClusterId dest_cluster, NodeId dest_ch) {
  if (update->learned_from == dest_cluster) return;  // flood damping
  if (!armed_.insert({update->report, dest_cluster})) return;

  if (rank == 0) {
    // The GW "will forward m immediately after receiving the message and
    // learning of the need to forward" (Section 4.3).
    if (config_.ack_mode == AckMode::kExplicit) {
      auto ack = std::make_shared<ExplicitAckPayload>();
      ack->report = update->report;
      ack->sender = node_.id();
      ack->to = update->sender;
      ack->cluster = dest_cluster;
      ack->receipt = false;
      stats_.explicit_acks++;
      transport_.send(std::move(ack), update->sender);
    }
    forward_across(update, dest_cluster, dest_ch, rank, n_backups,
                   kMaxGwRetries);
    return;
  }

  if (!config_.bgw_assist) return;
  // BGW ranked k stands by for k * 2*Thop, then forwards itself unless the
  // destination CH's implicit acknowledgement was overheard meanwhile.
  timers_.schedule_after(
      std::int64_t(rank) * 2 * t_hop_,
      [this, update, rank, n_backups, dest_cluster, dest_ch] {
        if (!node_.alive()) return;
        if (acked(update->report, dest_cluster)) return;
        forward_across(update, dest_cluster, dest_ch, rank, n_backups,
                       kMaxGwRetries);
      });
}

void ForwarderAgent::forward_across(
    const std::shared_ptr<const HealthUpdatePayload>& update,
    ClusterId dest_cluster, NodeId dest_ch, std::size_t my_rank,
    std::size_t n_backups, int attempts_left) {
  if (acked(update->report, dest_cluster)) return;

  auto report = std::make_shared<FailureReportPayload>();
  report->report = update->report;
  report->from_cluster = update->cluster;
  report->forwarder = node_.id();
  report->to_ch = dest_ch;
  report->epoch = update->epoch;
  report->failed = merged_failures(*update);

  if (my_rank == 0) {
    if (attempts_left == kMaxGwRetries) {
      stats_.reports_forwarded++;
    } else {
      stats_.gw_retries++;
    }
  } else {
    stats_.bgw_assists++;
  }
  transport_.send(std::move(report), dest_ch);

  // Both the GW and an assisting BGW wait (n+1) * 2*Thop for the implicit
  // acknowledgement before re-forwarding.
  timers_.schedule_after(
      std::int64_t(n_backups + 1) * 2 * t_hop_,
      [this, update, dest_cluster, dest_ch, my_rank, n_backups,
       attempts_left] {
        if (!node_.alive()) return;
        if (acked(update->report, dest_cluster)) return;
        if (attempts_left <= 0) return;
        forward_across(update, dest_cluster, dest_ch, my_rank, n_backups,
                       attempts_left - 1);
      });
}

void ForwarderAgent::on_update_overheard(
    const std::shared_ptr<const HealthUpdatePayload>& update) {
  // Any overheard CH emission acknowledges the reports in its acks list.
  for (ReportId rid : update->acks) {
    acks_seen_.insert({rid, update->cluster});
  }
  if (!view_.affiliated()) return;
  const ClusterId home = view_.cluster()->id;

  // A gateway that overhears a neighbouring cluster's takeover learns who
  // heads that cluster now.
  if (update->takeover && update->cluster != home) {
    view_.update_link_neighbor(update->cluster, update->sender);
  }

  if (!update->report.is_valid()) return;

  view_.for_each_link_role([&](const GatewayLink& link, std::size_t rank) {
    if (update->cluster == home) {
      // Our own CH detected something: carry it to the neighbour.
      consider_link(update, rank, link.backups.size(), link.neighbor_cluster,
                    link.neighbor_clusterhead);
    } else if (update->cluster == link.neighbor_cluster) {
      // The neighbour's CH detected something: carry it home.
      consider_link(update, rank, link.backups.size(), home,
                    view_.cluster()->clusterhead);
    }
  });
}

void ForwarderAgent::on_report(const FailureReportPayload& report) {
  // CH side: note forwards of our own reports (Figure 3's implicit ack for
  // the CH->GW hop).
  if (view_.affiliated() && view_.is_clusterhead() &&
      report.from_cluster == view_.cluster()->id) {
    for (const GatewayLink& link : view_.cluster()->links) {
      if (link.neighbor_clusterhead == report.to_ch) {
        forwards_seen_.insert({report.report, link.neighbor_cluster});
      }
    }
  }

  if (report.to_ch != node_.id()) return;
  if (!view_.affiliated() || !view_.is_clusterhead()) return;
  stats_.reports_received++;

  if (config_.ack_mode == AckMode::kExplicit) {
    auto ack = std::make_shared<ExplicitAckPayload>();
    ack->report = report.report;
    ack->sender = node_.id();
    ack->to = report.forwarder;
    ack->cluster = view_.cluster()->id;
    ack->receipt = true;
    stats_.explicit_acks++;
    transport_.send(std::move(ack), report.forwarder);
  }
  // The relay informs the local cluster, triggers further forwarding on our
  // other links when the report carried news, and — listing the report in
  // its acks — doubles as the implicit acknowledgement.
  fds_.broadcast_relay(report.failed, report.report, report.from_cluster);
}

void ForwarderAgent::on_frame(const Reception& reception) {
  if (!node_.alive()) return;
  if (auto update = payload_cast_shared<HealthUpdatePayload>(reception.payload)) {
    on_update_overheard(update);
    return;
  }
  if (const auto* forward =
          payload_cast<UpdateForwardPayload>(reception.payload)) {
    // A gateway that missed the CH's broadcast and recovered the update via
    // intra-cluster peer forwarding has still "learned of the need to
    // forward" (Section 4.3) — treat the recovered update like an overheard
    // one.
    if (forward->target == node_.id()) on_update_overheard(forward->update);
    return;
  }
  if (const auto* report =
          payload_cast<FailureReportPayload>(reception.payload)) {
    on_report(*report);
    return;
  }
  if (const auto* ack = payload_cast<ExplicitAckPayload>(reception.payload)) {
    if (ack->receipt) {
      acks_seen_.insert({ack->report, ack->cluster});
    } else if (ack->to == node_.id()) {
      forwards_seen_.insert({ack->report, ack->cluster});
    }
    return;
  }
}

ForwarderService::ForwarderService(Network& network, FdsService& fds,
                                   std::vector<MembershipView*> views,
                                   ForwarderConfig config)
    : network_(network), config_(config) {
  for (Node* node : network_.nodes()) {
    const std::size_t idx = node->id().value();
    CFDS_EXPECT(idx < views.size() && views[idx] != nullptr,
                "missing membership view");
    adopt_node(*node, *views[idx], fds.agent_for(node->id()));
  }
  install_hook(fds);
}

void ForwarderService::adopt_node(Node& node, MembershipView& view,
                                  FdsAgent& fds) {
  CFDS_EXPECT(node.id().value() == agents_.size(),
              "forwarder requires densely numbered nodes");
  agents_.push_back(std::make_unique<ForwarderAgent>(
      node, view, fds, node, network_.simulator(),
      network_.channel().config().t_hop, config_, stats_));
}

void ForwarderService::install_hook(FdsService& fds) {
  chain_hook(fds.hooks().on_update_sent,
             [this](NodeId sender,
                    const std::shared_ptr<const HealthUpdatePayload>& upd) {
               agents_[sender.value()]->on_own_update_sent(upd);
             });
}

}  // namespace cfds
