#include "cluster/directory.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <unordered_map>

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
  // bounds the CH-CH distance by 2R (triangle inequality), so only pairs
  // whose heads share a 2R-grid neighbourhood are examined — O(C * local
  // density) instead of the O(C^2) all-pairs scan, which dominated
  // formation time at 10^5+ nodes.
  const double pair_range = 2.0 * range;
  const auto pair_cell = [&](double v) {
    return std::int64_t(std::floor(v / pair_range));
  };
  const auto pack = [](std::int64_t cx, std::int64_t cy) {
    return ((cx + 0x40000000) << 32) |
           std::int64_t(std::uint32_t(cy + 0x40000000));
  };
  std::unordered_map<std::int64_t, std::vector<std::size_t>> ch_grid;
  for (std::size_t a = 0; a < dir.clusters_.size(); ++a) {
    const Vec2 ch = positions[dir.clusters_[a].clusterhead.value()];
    ch_grid[pack(pair_cell(ch.x), pair_cell(ch.y))].push_back(a);
  }
  std::map<std::pair<std::size_t, std::size_t>, std::vector<NodeId>> candidates;
  for (std::size_t a = 0; a < dir.clusters_.size(); ++a) {
    const Vec2 ch_a = positions[dir.clusters_[a].clusterhead.value()];
    const std::int64_t ccx = pair_cell(ch_a.x);
    const std::int64_t ccy = pair_cell(ch_a.y);
    for (std::int64_t cx = ccx - 1; cx <= ccx + 1; ++cx) {
      for (std::int64_t cy = ccy - 1; cy <= ccy + 1; ++cy) {
        const auto it = ch_grid.find(pack(cx, cy));
        if (it == ch_grid.end()) continue;
        for (const std::size_t b : it->second) {
          if (b <= a) continue;
          const Vec2 ch_b = positions[dir.clusters_[b].clusterhead.value()];
          if (!within_range(ch_a, ch_b, pair_range)) continue;
          std::vector<NodeId> pool;
          auto collect = [&](const ClusterView& c) {
            for (NodeId m : c.members) {
              const Vec2 pos = positions[m.value()];
              if (within_range(pos, ch_a, range) &&
                  within_range(pos, ch_b, range)) {
                pool.push_back(m);
              }
            }
          };
          collect(dir.clusters_[a]);
          collect(dir.clusters_[b]);
          if (!pool.empty()) {
            std::sort(pool.begin(), pool.end());
            candidates[{a, b}] = std::move(pool);
          }
        }
      }
    }
  }
  for (const auto& [pair, pool] : candidates) {
    const auto [a, b] = pair;
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
