#include "cluster/membership.h"

#include <algorithm>

namespace cfds {
namespace {

void erase_value(std::vector<NodeId>& v, NodeId value) {
  v.erase(std::remove(v.begin(), v.end(), value), v.end());
}

bool contains(const std::vector<NodeId>& v, NodeId value) {
  return std::find(v.begin(), v.end(), value) != v.end();
}

}  // namespace

ClusterView& MembershipView::mutate() {
  if (cluster_.use_count() != 1) {
    cluster_ = std::make_shared<const ClusterView>(*cluster_);
  }
  // Sole owner (either all along or after the clone above): in-place
  // mutation cannot be observed through any other node's view.
  return const_cast<ClusterView&>(*cluster_);
}

void MembershipView::apply_takeover(NodeId deputy) {
  if (!cluster_) return;
  if (!cluster_->is_member(deputy)) return;
  ClusterView& c = mutate();
  erase_value(c.members, deputy);
  erase_value(c.deputies, deputy);
  // The old CH is gone; it does not rejoin as a member (fail-stop).
  c.clusterhead = deputy;
  // The cluster keeps its identity: reports remain attributable.
}

void MembershipView::update_link_neighbor(ClusterId neighbor, NodeId new_ch) {
  if (!cluster_) return;
  const auto stale = [&](const GatewayLink& link) {
    return link.neighbor_cluster == neighbor &&
           link.neighbor_clusterhead != new_ch;
  };
  if (std::none_of(cluster_->links.begin(), cluster_->links.end(), stale)) {
    return;
  }
  for (GatewayLink& link : mutate().links) {
    if (link.neighbor_cluster == neighbor) link.neighbor_clusterhead = new_ch;
  }
}

void MembershipView::sync_members(const std::vector<NodeId>& members) {
  if (!cluster_) return;
  if (cluster_->members == members) {
    // Roster unchanged. Deputies are maintained as a subset of the member
    // list by every other mutator, so the erase_if below would be a no-op.
    const auto dropped = [&](NodeId d) { return !contains(members, d); };
    if (std::none_of(cluster_->deputies.begin(), cluster_->deputies.end(),
                     dropped)) {
      return;
    }
  }
  ClusterView& c = mutate();
  c.members = members;
  std::erase_if(c.deputies,
                [&](NodeId d) { return !contains(members, d); });
}

void MembershipView::admit_members(const std::vector<NodeId>& admitted) {
  if (!cluster_) return;
  const auto is_new = [&](NodeId a) { return !cluster_->is_member(a); };
  if (std::none_of(admitted.begin(), admitted.end(), is_new)) return;
  ClusterView& c = mutate();
  for (NodeId a : admitted) {
    if (!c.is_member(a)) c.members.push_back(a);
  }
}

}  // namespace cfds
