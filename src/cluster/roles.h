// Cluster role model.
//
// A cluster (Section 3) is a unit disk centred on the clusterhead (CH): every
// non-CH member is a one-hop neighbour of the CH, so any two members are at
// most two hops apart. The paper's clustering algorithm [16] additionally
// designates, per cluster: ranked deputy clusterheads (DCHs, feature F2) that
// take over failure detection when the CH dies, and per neighbouring cluster
// one gateway (GW) plus ranked backup gateways (BGWs). Feature F3: every
// gateway is affiliated with exactly one cluster.

#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/ids.h"

namespace cfds {

/// A node's role within its cluster.
enum class Role {
  kClusterhead,
  kDeputy,          ///< ranked DCH; rank 1 is the takeover authority
  kGateway,         ///< primary forwarder to one or more neighbour clusters
  kBackupGateway,   ///< ranked standby forwarder for a link
  kOrdinaryMember,
  kUnaffiliated,    ///< not (yet) admitted to any cluster
};

[[nodiscard]] constexpr const char* role_name(Role r) {
  switch (r) {
    case Role::kClusterhead: return "CH";
    case Role::kDeputy: return "DCH";
    case Role::kGateway: return "GW";
    case Role::kBackupGateway: return "BGW";
    case Role::kOrdinaryMember: return "OM";
    case Role::kUnaffiliated: return "-";
  }
  return "?";
}

/// Deputies designated per cluster (feature F2) by the formation protocol,
/// the centralized directory and the service-mode directory. The analysis
/// needs at least one; density makes two cheap.
inline constexpr std::size_t kDeputies = 2;
/// Backup gateways retained per neighbour-cluster link.
inline constexpr std::size_t kMaxBackupGateways = 3;

/// The forwarding structure between a cluster and one neighbouring cluster.
struct GatewayLink {
  ClusterId neighbor_cluster;
  NodeId neighbor_clusterhead;
  NodeId gateway;
  /// Ranked backups; backups[0] has rank 1 (timer 1 * 2*Thop, Section 4.3).
  std::vector<NodeId> backups;

  friend bool operator==(const GatewayLink&, const GatewayLink&) = default;

  /// Rank of `node` on this link: 0 for the GW, k >= 1 for the rank-k BGW,
  /// nullopt if the node plays no role on this link.
  [[nodiscard]] std::optional<std::size_t> rank_of(NodeId node) const {
    if (node == gateway) return 0;
    const auto it = std::find(backups.begin(), backups.end(), node);
    if (it == backups.end()) return std::nullopt;
    return std::size_t(it - backups.begin()) + 1;
  }
};

/// One cluster's full organization, as announced by its CH.
struct ClusterView {
  ClusterId id;
  NodeId clusterhead;
  /// Non-CH members (OMs, deputies, gateways all appear here).
  std::vector<NodeId> members;
  /// Ranked deputies; deputies[0] is the highest-ranked DCH.
  std::vector<NodeId> deputies;
  std::vector<GatewayLink> links;

  [[nodiscard]] bool is_member(NodeId n) const {
    return n == clusterhead ||
           std::find(members.begin(), members.end(), n) != members.end();
  }

  /// Cluster population including the CH.
  [[nodiscard]] std::size_t population() const { return members.size() + 1; }

  /// Role of `node` in this cluster. Deputy/gateway roles take precedence
  /// over plain membership; deputy outranks gateway (a DCH that is also a
  /// gateway candidate acts as DCH for detection purposes).
  [[nodiscard]] Role role_of(NodeId node) const {
    if (node == clusterhead) return Role::kClusterhead;
    if (std::find(deputies.begin(), deputies.end(), node) != deputies.end()) {
      return Role::kDeputy;
    }
    for (const GatewayLink& link : links) {
      if (link.gateway == node) return Role::kGateway;
    }
    for (const GatewayLink& link : links) {
      if (link.rank_of(node).value_or(0) >= 1) return Role::kBackupGateway;
    }
    if (is_member(node)) return Role::kOrdinaryMember;
    return Role::kUnaffiliated;
  }
};

// Fingerprint tripwires (src/check/fingerprint.h): a layout change means
// cluster-organization state was added — mix it in
// src/check/fingerprint.cpp (or FP-EXEMPT it with a reason), then update
// the expected size.
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBCXX__) && \
    !defined(_GLIBCXX_DEBUG)
static_assert(sizeof(GatewayLink) == 40,
              "GatewayLink layout changed: update src/check/fingerprint.cpp, "
              "then this tripwire");
static_assert(sizeof(ClusterView) == 80,
              "ClusterView layout changed: update src/check/fingerprint.cpp, "
              "then this tripwire");
#endif

}  // namespace cfds
