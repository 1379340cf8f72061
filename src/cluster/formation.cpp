#include "cluster/formation.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/expect.h"

namespace cfds {

FormationAgent::FormationAgent(Node& node, Transport& transport)
    : node_(node), transport_(transport), view_(node.id()) {
  transport_.add_frame_handler(
      [](void* self, const Reception& reception) {
        static_cast<FormationAgent*>(self)->on_frame(reception);
      },
      this);
}

void FormationAgent::begin_iteration() {
  lowest_unmarked_probe_ = NodeId::invalid();
  probes_heard_ = 0;
  lowest_claimant_ = NodeId::invalid();
  claiming_ = false;
  joins_received_.clear();
}

void FormationAgent::send_probe() {
  if (!node_.alive()) return;
  auto probe = std::make_shared<ProbePayload>();
  probe->sender = node_.id();
  probe->marked = node_.marked();
  transport_.send(std::move(probe));
}

void FormationAgent::send_claim_if_eligible() {
  if (!node_.alive() || node_.marked()) return;
  // Lowest-NID policy over the *unmarked* one-hop neighbourhood. A node that
  // heard no probe at all is isolated; it never claims (the paper leaves
  // isolated nodes outside the cluster structure).
  if (probes_heard_ == 0) return;
  // A node that already knows a reachable clusterhead joins it instead of
  // founding a cluster inside an existing one.
  if (!foreign_clusterheads_.empty()) return;
  if (lowest_unmarked_probe_.is_valid() &&
      lowest_unmarked_probe_ < node_.id()) {
    return;
  }
  claiming_ = true;
  auto claim = std::make_shared<ChClaimPayload>();
  claim->claimant = node_.id();
  transport_.send(std::move(claim));
}

void FormationAgent::send_join_if_needed() {
  if (!node_.alive() || node_.marked()) return;
  // Candidates: claimants heard this iteration (RCC-style conflict
  // resolution: a claimant that hears a lower claim withdraws and joins it),
  // plus clusterheads known from earlier announcements.
  NodeId best = claiming_ ? node_.id() : NodeId::invalid();
  if (lowest_claimant_.is_valid() &&
      (!best.is_valid() || lowest_claimant_ < best)) {
    best = lowest_claimant_;
  }
  for (const auto& [cluster, ch] : foreign_clusterheads_) {
    (void)cluster;
    if (!best.is_valid() || ch < best) best = ch;
  }
  if (!best.is_valid()) return;  // nobody to join this iteration
  if (best == node_.id()) return;  // still the claimant
  claiming_ = false;
  auto join = std::make_shared<JoinPayload>();
  join->sender = node_.id();
  join->clusterhead = best;
  join->observed_degree = probes_heard_;
  transport_.send(std::move(join), best);
}

void FormationAgent::send_announcement_if_clusterhead() {
  if (!node_.alive()) return;
  const bool new_cluster = claiming_;
  const bool existing_ch = node_.marked() && view_.is_clusterhead();
  if (!new_cluster && !existing_ch) return;
  if (existing_ch && joins_received_.empty()) return;  // nothing changed

  if (new_cluster) {
    ClusterView fresh;
    fresh.id = ClusterId{node_.id().value()};
    fresh.clusterhead = node_.id();
    view_.set_cluster(std::move(fresh));
    node_.set_marked(true);
    member_degrees_.clear();
  }
  for (const Join& join : joins_received_) {
    member_degrees_[join.sender] = join.degree;
  }
  joins_received_.clear();

  ClusterView updated = *view_.cluster();
  updated.members.clear();
  for (const auto& [member, degree] : member_degrees_) {
    (void)degree;
    updated.members.push_back(member);
  }
  // Deputy ranking (F2): best-connected members first, ties to lower NID.
  std::vector<NodeId> ranked = updated.members;
  std::sort(ranked.begin(), ranked.end(), [this](NodeId a, NodeId b) {
    const std::size_t da = member_degrees_.at(a);
    const std::size_t db = member_degrees_.at(b);
    if (da != db) return da > db;
    return a < b;
  });
  updated.deputies.assign(
      ranked.begin(),
      ranked.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                           kDeputies, ranked.size())));
  view_.set_cluster(updated);

  auto announce = std::make_shared<AnnouncePayload>();
  announce->cluster = updated.id;
  announce->clusterhead = updated.clusterhead;
  announce->members = updated.members;
  announce->deputies = updated.deputies;
  transport_.send(std::move(announce));
}

void FormationAgent::send_gateway_candidacy_if_needed() {
  if (!node_.alive() || !node_.marked() || !view_.affiliated()) return;
  if (view_.is_clusterhead()) return;
  std::vector<std::pair<ClusterId, NodeId>> reachable;
  for (const auto& [cluster, ch] : foreign_clusterheads_) {
    if (cluster != view_.cluster()->id) reachable.emplace_back(cluster, ch);
  }
  if (reachable.empty()) return;
  if (reachable.size() == last_candidacy_size_) return;  // already reported
  last_candidacy_size_ = reachable.size();

  auto candidacy = std::make_shared<GatewayCandidacyPayload>();
  candidacy->sender = node_.id();
  candidacy->home_cluster = view_.cluster()->id;
  candidacy->reachable = std::move(reachable);
  transport_.send(std::move(candidacy), view_.cluster()->clusterhead);
}

void FormationAgent::send_gateway_assignment_if_clusterhead() {
  if (!node_.alive() || !view_.is_clusterhead()) return;
  const ClusterId mine = view_.cluster()->id;

  // Candidates per neighbouring cluster. A candidacy is relevant if the
  // candidate's home is this cluster (it reaches foreign CHs), or if it
  // reaches *us* from a foreign home (overheard, symmetric links) — both
  // sides rank the same pool, so the two CHs agree when no frames are lost.
  FlatMap<ClusterId, std::pair<NodeId, std::vector<NodeId>>> per_neighbor;
  for (const CandidacyRow& row : candidacies_heard_) {
    if (row.home == mine) {
      per_neighbor[row.cluster].first = row.clusterhead;
      per_neighbor[row.cluster].second.push_back(row.sender);
    } else if (row.cluster == mine) {
      auto& entry = per_neighbor[row.home];
      if (const auto it = foreign_clusterheads_.find(row.home);
          it != foreign_clusterheads_.end()) {
        entry.first = it->second;
      } else if (!entry.first.is_valid()) {
        // By convention a cluster is named after its founding CH.
        entry.first = NodeId{row.home.value()};
      }
      entry.second.push_back(row.sender);
    }
  }
  if (per_neighbor.empty()) return;

  std::vector<GatewayLink> links;
  for (auto& [neighbor, info] : per_neighbor) {
    auto& [neighbor_ch, candidates] = info;
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    GatewayLink link;
    link.neighbor_cluster = neighbor;
    link.neighbor_clusterhead = neighbor_ch;
    link.gateway = candidates.front();
    for (std::size_t i = 1;
         i < candidates.size() && link.backups.size() < kMaxBackupGateways;
         ++i) {
      link.backups.push_back(candidates[i]);
    }
    links.push_back(std::move(link));
  }

  if (links == view_.cluster()->links) return;  // degenerate iteration (F4)
  ClusterView updated = *view_.cluster();
  updated.links = links;
  view_.set_cluster(std::move(updated));

  auto assignment = std::make_shared<GatewayAssignmentPayload>();
  assignment->cluster = mine;
  assignment->links = std::move(links);
  transport_.send(std::move(assignment));
}

void FormationAgent::on_frame(const Reception& reception) {
  if (const auto* probe = payload_cast<ProbePayload>(reception.payload)) {
    ++probes_heard_;
    if (!probe->marked && (!lowest_unmarked_probe_.is_valid() ||
                           probe->sender < lowest_unmarked_probe_)) {
      lowest_unmarked_probe_ = probe->sender;
    }
    return;
  }
  if (const auto* claim = payload_cast<ChClaimPayload>(reception.payload)) {
    if (!lowest_claimant_.is_valid() || claim->claimant < lowest_claimant_) {
      lowest_claimant_ = claim->claimant;
    }
    return;
  }
  if (const auto* join = payload_cast<JoinPayload>(reception.payload)) {
    if (join->clusterhead == node_.id()) {
      joins_received_.push_back(Join{join->sender, join->observed_degree});
    }
    return;
  }
  if (const auto* announce = payload_cast<AnnouncePayload>(reception.payload)) {
    const bool mine =
        std::find(announce->members.begin(), announce->members.end(),
                  node_.id()) != announce->members.end();
    if (mine) {
      ClusterView fresh;
      fresh.id = announce->cluster;
      fresh.clusterhead = announce->clusterhead;
      fresh.members = announce->members;
      fresh.deputies = announce->deputies;
      // Preserve the link table across re-announcements of the same cluster.
      if (view_.affiliated() && view_.cluster()->id == announce->cluster) {
        fresh.links = view_.cluster()->links;
      }
      view_.set_cluster(std::move(fresh));
      node_.set_marked(true);
    } else if (!view_.affiliated() ||
               announce->cluster != view_.cluster()->id) {
      foreign_clusterheads_[announce->cluster] = announce->clusterhead;
    }
    return;
  }
  if (const auto* candidacy =
          payload_cast<GatewayCandidacyPayload>(reception.payload)) {
    // The latest candidacy replaces the sender's run of rows in place:
    // resize the run to the new row count, then overwrite it.
    const auto by_sender = [](const CandidacyRow& row, NodeId sender) {
      return row.sender < sender;
    };
    auto first =
        std::lower_bound(candidacies_heard_.begin(), candidacies_heard_.end(),
                         candidacy->sender, by_sender);
    auto last = first;
    while (last != candidacies_heard_.end() &&
           last->sender == candidacy->sender) {
      ++last;
    }
    const auto old_rows = std::size_t(last - first);
    const std::size_t new_rows = candidacy->reachable.size();
    if (new_rows > old_rows) {
      first = candidacies_heard_.insert(last, new_rows - old_rows,
                                        CandidacyRow{}) -
              std::ptrdiff_t(old_rows);
    } else {
      candidacies_heard_.erase(first + std::ptrdiff_t(new_rows), last);
    }
    for (const auto& [cluster, ch] : candidacy->reachable) {
      *first++ = CandidacyRow{candidacy->sender, candidacy->home_cluster,
                              cluster, ch};
    }
    return;
  }
  if (const auto* assignment =
          payload_cast<GatewayAssignmentPayload>(reception.payload)) {
    if (view_.affiliated() && view_.cluster()->id == assignment->cluster &&
        !view_.is_clusterhead()) {
      ClusterView updated = *view_.cluster();
      updated.links = assignment->links;
      view_.set_cluster(std::move(updated));
    }
    return;
  }
}

FormationProtocol::FormationProtocol(Network& network) : network_(network) {
  for (Node* node : network_.nodes()) {
    agents_.push_back(std::make_unique<FormationAgent>(*node, *node));
  }
}

std::vector<FormationAgent*> FormationProtocol::agents() {
  std::vector<FormationAgent*> out;
  out.reserve(agents_.size());
  for (auto& a : agents_) out.push_back(a.get());
  return out;
}

void FormationProtocol::adopt_new_nodes() {
  const auto& nodes = network_.nodes();
  for (std::size_t i = agents_.size(); i < nodes.size(); ++i) {
    agents_.push_back(std::make_unique<FormationAgent>(*nodes[i], *nodes[i]));
  }
}

FormationAgent& FormationProtocol::agent_for(NodeId id) {
  for (auto& a : agents_) {
    if (a->id() == id) return *a;
  }
  CFDS_EXPECT(false, "no agent for node id");
  __builtin_unreachable();
}

SimTime FormationProtocol::run(std::size_t iterations, SimTime start) {
  Simulator& sim = network_.simulator();
  const SimTime thop = network_.channel().config().t_hop;
  for (std::size_t i = 0; i < iterations; ++i) {
    const SimTime t0 = start + SimTime::micros(std::int64_t(i) * 6 *
                                               thop.as_micros());
    auto at = [&](int round, void (FormationAgent::*action)()) {
      sim.schedule_at(t0 + round * thop, [this, action] {
        for (auto& agent : agents_) (agent.get()->*action)();
      });
    };
    sim.schedule_at(t0, [this] {
      for (auto& agent : agents_) agent->begin_iteration();
    });
    at(0, &FormationAgent::send_probe);
    at(1, &FormationAgent::send_claim_if_eligible);
    at(2, &FormationAgent::send_join_if_needed);
    at(3, &FormationAgent::send_announcement_if_clusterhead);
    at(4, &FormationAgent::send_gateway_candidacy_if_needed);
    at(5, &FormationAgent::send_gateway_assignment_if_clusterhead);
  }
  const SimTime end =
      start + SimTime::micros(std::int64_t(iterations) * 6 * thop.as_micros()) +
      thop;
  sim.run_until(end);
  return end;
}

std::size_t FormationProtocol::cluster_count() const {
  FlatSet<ClusterId> seen;
  for (const auto& agent : agents_) {
    if (agent->view().affiliated()) seen.insert(agent->view().cluster()->id);
  }
  return seen.size();
}

}  // namespace cfds
