// Connectivity-graph utilities over node placements.
//
// The paper models the network as G = (V, E) with an edge whenever two hosts
// are within the common transmission range (Section 2.3). These helpers are
// used by centralized clustering (ClusterDirectory), by tests of clustering
// invariants (every OM one hop from its CH; any two co-members at most two
// hops apart), and by bench_kernel's spatial-layer timings. The grid that
// runs under mobility is Channel's (radio/channel.h), not this one.
//
// Construction uses a uniform grid with cell size = range (the same 3x3-probe
// scheme Channel uses for frame delivery), so building the graph costs
// O(n * local density) instead of O(n^2). The adjacency is stored in CSR form
// (one offsets array + one flat neighbour array) rather than a vector of
// vectors, so a build performs O(1) allocations regardless of node count.
// Neighbour lists are sorted ascending — identical, edge for edge, to what
// the brute-force all-pairs build produces.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.h"

namespace cfds {

/// Undirected unit-disk graph: neighbors(i) lists the indices of nodes within
/// `range` of node i (excluding i itself), in ascending index order.
class UnitDiskGraph {
 public:
  /// Lightweight view over one node's CSR neighbour slice.
  class NeighborSpan {
   public:
    using const_iterator = const std::uint32_t*;
    NeighborSpan(const_iterator first, const_iterator last)
        : first_(first), last_(last) {}
    [[nodiscard]] const_iterator begin() const { return first_; }
    [[nodiscard]] const_iterator end() const { return last_; }
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(last_ - first_);
    }
    [[nodiscard]] bool empty() const { return first_ == last_; }
    [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
      return first_[i];
    }

   private:
    const_iterator first_;
    const_iterator last_;
  };

  UnitDiskGraph(const std::vector<Vec2>& positions, double range);

  /// Reference all-pairs O(n^2) build. Produces a graph identical to the
  /// grid build; kept as the oracle for property tests.
  [[nodiscard]] static UnitDiskGraph brute_force(
      const std::vector<Vec2>& positions, double range);

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  [[nodiscard]] NeighborSpan neighbors(std::size_t i) const {
    return NeighborSpan{flat_.data() + offsets_[i],
                        flat_.data() + offsets_[i + 1]};
  }
  [[nodiscard]] std::size_t degree(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  /// Hop distance from `from` to every node; unreachable nodes get SIZE_MAX.
  [[nodiscard]] std::vector<std::size_t> hop_distances(std::size_t from) const;

  /// Component label per node (labels are 0..k-1 in discovery order).
  [[nodiscard]] std::vector<std::size_t> components() const;

  /// True if every node is reachable from node 0 (false for an empty graph).
  [[nodiscard]] bool connected() const;

  /// Indices of nodes with no neighbours at all — the paper's "isolated"
  /// nodes, which clustering legitimately leaves uncovered.
  [[nodiscard]] std::vector<std::size_t> isolated_nodes() const;

 private:
  UnitDiskGraph() = default;

  /// Builds the CSR arrays from an i<j edge list (destroys `edges`).
  void build_csr(std::size_t n,
                 std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges);

  std::vector<std::size_t> offsets_{0};  // size() + 1 entries
  std::vector<std::uint32_t> flat_;
};

}  // namespace cfds
