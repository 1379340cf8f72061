// Centralized reference formation.
//
// Computes, from global knowledge of node positions, the cluster structure
// the distributed protocol converges to when no frames are lost: greedy
// lowest-NID clusterheads, members = in-range nodes not yet taken, deputies
// ranked by in-cluster degree, per-cluster-pair GW/BGW ranking by NID.
//
// Used by (a) tests, as the oracle the distributed formation is checked
// against under perfect links, and (b) the figure experiments, which need
// exact control of cluster composition (the paper's analysis fixes N and the
// worst-case node position, so the Monte-Carlo cross-check must start from
// precisely that cluster, not from whatever lossy formation produced).

#pragma once

#include <vector>

#include "cluster/membership.h"
#include "cluster/roles.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "net/network.h"

namespace cfds {

/// Global cluster structure plus lookup helpers.
class ClusterDirectory {
 public:
  /// Runs the centralized algorithm over `positions` (index = NID value),
  /// with kDeputies deputies per cluster and up to kMaxBackupGateways
  /// backups per link, as the formation protocol elects them.
  static ClusterDirectory build(const std::vector<Vec2>& positions,
                                double range);

  /// Builds a single cluster by fiat: node 0 is the CH, nodes 1..n-1 are
  /// members, the first `num_deputies` members are deputies in NID order.
  /// Matches the paper's single-cluster analysis setting.
  static ClusterDirectory single_cluster(std::size_t n,
                                         std::size_t num_deputies = kDeputies);

  [[nodiscard]] const std::vector<ClusterView>& clusters() const {
    return clusters_;
  }

  /// The cluster containing `node`, or nullptr if unaffiliated.
  [[nodiscard]] const ClusterView* cluster_of(NodeId node) const;

  /// Installs each node's view into the given per-node MembershipViews
  /// (indexed by NID value) and sets the nodes' marked flags.
  void install(Network& network,
               std::vector<MembershipView*>& views) const;

 private:
  std::vector<ClusterView> clusters_;
};

}  // namespace cfds
