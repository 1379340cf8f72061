#include "cluster/directory.h"

#include <algorithm>
#include <cstddef>

#include "common/expect.h"
#include "net/graph.h"

namespace cfds {

ClusterDirectory ClusterDirectory::build(const std::vector<Vec2>& positions,
                                         double range) {
  ClusterDirectory dir;
  const UnitDiskGraph graph(positions, range);
  const std::size_t n = positions.size();
  std::vector<bool> marked(n, false);

  // Greedy lowest-NID clustering: in NID order, an unmarked node founds a
  // cluster over its unmarked in-range neighbours. Isolated nodes stay out.
  for (std::size_t v = 0; v < n; ++v) {
    if (marked[v] || graph.degree(v) == 0) continue;
    ClusterView cluster;
    cluster.id = ClusterId{std::uint32_t(v)};
    cluster.clusterhead = NodeId{std::uint32_t(v)};
    marked[v] = true;
    for (std::size_t u : graph.neighbors(v)) {
      if (!marked[u]) {
        marked[u] = true;
        cluster.members.push_back(NodeId{std::uint32_t(u)});
      }
    }
    std::sort(cluster.members.begin(), cluster.members.end());
    dir.clusters_.push_back(std::move(cluster));
  }

  // Deputies: members ranked by one-hop degree (descending), ties to NID.
  for (ClusterView& cluster : dir.clusters_) {
    std::vector<NodeId> ranked = cluster.members;
    std::sort(ranked.begin(), ranked.end(), [&](NodeId a, NodeId b) {
      const std::size_t da = graph.degree(a.value());
      const std::size_t db = graph.degree(b.value());
      if (da != db) return da > db;
      return a < b;
    });
    cluster.deputies.assign(
        ranked.begin(),
        ranked.begin() + static_cast<std::ptrdiff_t>(
                             std::min(kDeputies, ranked.size())));
  }

  // Gateways: for each cluster pair, candidates are the nodes within range
  // of both CHs (members of either cluster); GW = lowest NID, remaining
  // candidates become ranked BGWs. A candidate within range of both CHs
  // bounds the CH-CH distance by 2R (triangle inequality), so only the
  // pairs adjacent in a unit-disk graph over the CHs at range 2R are
  // examined — O(C * local density) instead of the O(C^2) all-pairs scan,
  // which dominated formation time at 10^5+ nodes. Pairs are visited with
  // a ascending and then b > a ascending (CSR neighbour order).
  std::vector<Vec2> heads;
  heads.reserve(dir.clusters_.size());
  for (const ClusterView& cluster : dir.clusters_) {
    heads.push_back(positions[cluster.clusterhead.value()]);
  }
  const UnitDiskGraph head_graph(heads, 2.0 * range);
  std::vector<NodeId> pool;
  for (std::size_t a = 0; a < heads.size(); ++a) {
    for (const std::size_t b : head_graph.neighbors(a)) {
      if (b <= a) continue;
      pool.clear();
      for (const std::size_t c : {a, b}) {
        for (NodeId m : dir.clusters_[c].members) {
          const Vec2 pos = positions[m.value()];
          if (within_range(pos, heads[a], range) &&
              within_range(pos, heads[b], range)) {
            pool.push_back(m);
          }
        }
      }
      if (pool.empty()) continue;
      std::sort(pool.begin(), pool.end());
      auto make_link = [&](const ClusterView& to) {
        GatewayLink link;
        link.neighbor_cluster = to.id;
        link.neighbor_clusterhead = to.clusterhead;
        link.gateway = pool.front();
        for (std::size_t i = 1;
             i < pool.size() && link.backups.size() < kMaxBackupGateways;
             ++i) {
          link.backups.push_back(pool[i]);
        }
        return link;
      };
      dir.clusters_[a].links.push_back(make_link(dir.clusters_[b]));
      dir.clusters_[b].links.push_back(make_link(dir.clusters_[a]));
    }
  }
  return dir;
}

ClusterDirectory ClusterDirectory::single_cluster(std::size_t n,
                                                  std::size_t num_deputies) {
  CFDS_EXPECT(n >= 2, "a cluster needs a CH and at least one member");
  ClusterDirectory dir;
  ClusterView cluster;
  cluster.id = ClusterId{0};
  cluster.clusterhead = NodeId{0};
  for (std::uint32_t i = 1; i < n; ++i) cluster.members.push_back(NodeId{i});
  for (std::size_t i = 0; i < std::min(num_deputies, n - 1); ++i) {
    cluster.deputies.push_back(cluster.members[i]);
  }
  dir.clusters_.push_back(std::move(cluster));
  return dir;
}

const ClusterView* ClusterDirectory::cluster_of(NodeId node) const {
  for (const ClusterView& c : clusters_) {
    if (c.is_member(node)) return &c;
  }
  return nullptr;
}

void ClusterDirectory::install(Network& network,
                               std::vector<MembershipView*>& views) const {
  for (const ClusterView& cluster : clusters_) {
    // One shared view object per cluster: every member adopts the same
    // allocation (copy-on-write — a member's view only forks if a later
    // update actually changes it). Installing a 10^6-node world costs one
    // allocation per cluster, not a deep ClusterView copy per node.
    const auto shared = std::make_shared<const ClusterView>(cluster);
    auto apply = [&](NodeId id) {
      CFDS_EXPECT(id.value() < views.size() && views[id.value()] != nullptr,
                  "missing membership view for node");
      views[id.value()]->set_cluster(shared);
      network.node(id).set_marked(true);
    };
    apply(cluster.clusterhead);
    for (NodeId m : cluster.members) apply(m);
  }
}

}  // namespace cfds
