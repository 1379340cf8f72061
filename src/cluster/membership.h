// Per-node membership state.
//
// Each node keeps its own view of the cluster it belongs to; the FDS and the
// inter-cluster forwarder consult this view for the node's role, the expected
// heartbeat sources, and the gateway structure. Views are updated by the
// formation protocol, by CH announcements, and by DCH takeover.
//
// Storage is copy-on-write: the ClusterView lives behind a
// shared_ptr<const ClusterView>, so centralized formation installs ONE view
// object per cluster shared by every member (a million-node world allocates
// per cluster, not per node), and a CH's roster snapshot adopted by k members
// is one allocation, not k. Mutators clone only when the view is actually
// shared and the change is real — every mutator starts with a no-change fast
// path, which also keeps steady-state FDS rounds allocation-free.

#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/roles.h"
#include "common/ids.h"

namespace cfds {

/// Nullable reference to a node's (immutable, possibly shared) cluster view.
/// Mimics the optional<ClusterView>& interface this accessor historically
/// returned: test with has_value()/bool, read through * and ->.
class ClusterRef {
 public:
  explicit ClusterRef(const ClusterView* view) : view_(view) {}

  [[nodiscard]] bool has_value() const { return view_ != nullptr; }
  explicit operator bool() const { return view_ != nullptr; }
  [[nodiscard]] const ClusterView& operator*() const { return *view_; }
  [[nodiscard]] const ClusterView* operator->() const { return view_; }

 private:
  const ClusterView* view_;
};

/// What one node believes about its own cluster.
class MembershipView {
 public:
  using ClusterViewPtr = std::shared_ptr<const ClusterView>;

  explicit MembershipView(NodeId self) : self_(self) {}

  [[nodiscard]] NodeId self() const { return self_; }

  [[nodiscard]] bool affiliated() const { return cluster_ != nullptr; }
  [[nodiscard]] ClusterRef cluster() const {
    return ClusterRef(cluster_.get());
  }

  /// The shared view object itself. Pointer equality between two nodes'
  /// cluster_ptr() proves their views identical without a deep compare
  /// (formation uses this to adopt prebuilt announced views).
  [[nodiscard]] const ClusterViewPtr& cluster_ptr() const { return cluster_; }

  /// Installs or replaces the cluster organization with a private copy.
  void set_cluster(ClusterView view) {
    cluster_ = std::make_shared<const ClusterView>(std::move(view));
  }
  /// Adopts an existing (shared) view object: one allocation serves every
  /// member the installer hands it to.
  void set_cluster(ClusterViewPtr view) { cluster_ = std::move(view); }
  void clear() { cluster_.reset(); }

  /// This node's current role.
  [[nodiscard]] Role role() const {
    return cluster_ ? cluster_->role_of(self_) : Role::kUnaffiliated;
  }

  [[nodiscard]] bool is_clusterhead() const {
    return cluster_ && cluster_->clusterhead == self_;
  }

  /// True if this node is the highest-ranked deputy (the CH-failure
  /// detection authority, Section 4.2).
  [[nodiscard]] bool is_primary_deputy() const {
    return cluster_ && !cluster_->deputies.empty() &&
           cluster_->deputies.front() == self_;
  }

  /// True if this node holds any deputy rank. All deputies collect digest
  /// evidence so that a lower rank inherits the same witness protection
  /// when the chain of command above it goes silent.
  [[nodiscard]] bool is_deputy() const {
    if (!cluster_) return false;
    for (NodeId d : cluster_->deputies) {
      if (d == self_) return true;
    }
    return false;
  }

  /// Calls `visit(link, rank)` for each gateway link on which this node is
  /// the GW (rank 0) or a rank-k BGW, in link order. Allocation-free: the
  /// forwarder walks it for every overheard update.
  template <typename Visit>
  void for_each_link_role(Visit&& visit) const {
    if (!cluster_) return;
    for (const GatewayLink& link : cluster_->links) {
      if (auto rank = link.rank_of(self_)) visit(link, *rank);
    }
  }

  /// Applies a DCH takeover: `deputy` becomes the CH, the failed CH is
  /// removed, remaining deputies shift up. No-op if not affiliated.
  void apply_takeover(NodeId deputy);

  /// Removes failed members from the view (after a health-status update).
  void remove_members(const std::vector<NodeId>& failed) {
    if (failed.empty()) return;
    remove_members_if([&](NodeId n) {
      return std::find(failed.begin(), failed.end(), n) != failed.end();
    });
  }

  /// Removes every member, deputy and gateway `is_failed` holds for; a
  /// failed GW hands its link to the highest-ranked surviving backup. One
  /// walk over the view, however long the list behind `is_failed` is.
  template <typename Pred>
  void remove_members_if(Pred is_failed);

  /// Admits newly subscribed members (feature F5: unmarked heartbeats act as
  /// membership subscriptions).
  void admit_members(const std::vector<NodeId>& admitted);

  /// Replaces the member list with the clusterhead's authoritative snapshot
  /// (crash-recovery reconciliation); deputies no longer in the list are
  /// dropped. No-op if not affiliated (or if the snapshot changes nothing —
  /// the steady-state case for every per-epoch roster announcement).
  void sync_members(const std::vector<NodeId>& members);

  /// Records that the neighbouring cluster `neighbor` is now headed by
  /// `new_ch` (a gateway overheard its takeover update); future reports on
  /// that link are addressed to the new CH.
  void update_link_neighbor(ClusterId neighbor, NodeId new_ch);

 private:
  /// The view as privately mutable state: clones the shared object unless
  /// this node is its only holder (then mutates in place — the clone would
  /// be dead weight). Callers must have checked cluster_ != nullptr and
  /// that a real change follows.
  [[nodiscard]] ClusterView& mutate();

  // LINT-FINGERPRINT: members below must be covered (mixed or FP-EXEMPT'd)
  // in src/check/fingerprint.cpp — rule state-outside-fingerprint.
  NodeId self_;
  ClusterViewPtr cluster_;
};

template <typename Pred>
void MembershipView::remove_members_if(Pred is_failed) {
  if (!cluster_) return;
  // No-change fast path: most updates carry no (new) failures, and cloning
  // a shared view to remove nobody would end the sharing for nothing.
  const auto any = [&](const std::vector<NodeId>& v) {
    return std::any_of(v.begin(), v.end(), is_failed);
  };
  const auto link_touched = [&](const GatewayLink& link) {
    return is_failed(link.gateway) || any(link.backups);
  };
  if (!any(cluster_->members) && !any(cluster_->deputies) &&
      std::none_of(cluster_->links.begin(), cluster_->links.end(),
                   link_touched)) {
    return;
  }
  ClusterView& c = mutate();
  std::erase_if(c.members, is_failed);
  std::erase_if(c.deputies, is_failed);
  for (GatewayLink& link : c.links) {
    std::erase_if(link.backups, is_failed);
    if (!is_failed(link.gateway)) continue;
    // Highest-ranked surviving backup becomes the gateway.
    if (link.backups.empty()) {
      link.gateway = NodeId::invalid();
    } else {
      link.gateway = link.backups.front();
      link.backups.erase(link.backups.begin());
    }
  }
}

// Fingerprint tripwire (src/check/fingerprint.h): a layout change means
// membership state was added — mix it in src/check/fingerprint.cpp (or
// FP-EXEMPT it with a reason), then update the expected size.
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBCXX__) && \
    !defined(_GLIBCXX_DEBUG)
static_assert(sizeof(MembershipView) == 24,
              "MembershipView layout changed: update "
              "src/check/fingerprint.cpp, then this tripwire");
#endif

}  // namespace cfds
