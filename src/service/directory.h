// Directory-installed cluster organization.
//
// Service mode skips the distributed formation protocol: every process
// computes the same cluster organization from (node_count, cluster_size)
// alone. NIDs are partitioned into contiguous blocks; within a block the
// lowest NID is the clusterhead and the next `kDeputies` (cluster/roles.h)
// NIDs are the ranked deputies — the same lowest-NID policy the formation
// protocol elects, minus the negotiation.
//
// Positions are a unit grid (row-major, 10 m pitch). They only matter to
// the jam-disk fault filter: the transport is a full broadcast domain, so
// geometry does not gate delivery.

#pragma once

#include <cstdint>

#include "cluster/roles.h"
#include "common/geometry.h"
#include "common/ids.h"

namespace cfds::service {

/// Grid pitch of directory positions, metres.
inline constexpr double kGridPitch = 10.0;

/// The directory cluster (block) index of `id`.
[[nodiscard]] std::uint32_t directory_cluster_index(NodeId id,
                                                    std::uint32_t cluster_size);

/// The full organization of the cluster containing `self`: block members,
/// CH = lowest NID, deputies = next kDeputies NIDs. No gateway links — the
/// broadcast domain needs no backbone. `self` must be < node_count.
[[nodiscard]] ClusterView directory_cluster(NodeId self,
                                            std::uint32_t node_count,
                                            std::uint32_t cluster_size);

/// Row-major grid position of `id` (used by jam-disk fault checks only).
[[nodiscard]] Vec2 directory_position(NodeId id, std::uint32_t node_count);

}  // namespace cfds::service
