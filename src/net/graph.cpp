#include "net/graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/expect.h"

namespace cfds {

namespace {

// Same packing as Channel::cell_key: cell size = range, coordinates biased so
// negative positions stay well-defined.
std::int64_t cell_key(std::int64_t cx, std::int64_t cy) {
  return ((cx + 0x40000000) << 32) | std::int64_t(std::uint32_t(cy + 0x40000000));
}

}  // namespace

void UnitDiskGraph::build_csr(
    std::size_t n, std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  offsets_.assign(n + 1, 0);
  for (const auto& [i, j] : edges) {
    ++offsets_[i + 1];
    ++offsets_[j + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  flat_.resize(offsets_[n]);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [i, j] : edges) {
    flat_[cursor[i]++] = j;
    flat_[cursor[j]++] = i;
  }
  // Ascending neighbour order, matching the all-pairs build.
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(flat_.begin() + std::ptrdiff_t(offsets_[v]),
              flat_.begin() + std::ptrdiff_t(offsets_[v + 1]));
  }
  edges.clear();
  edges.shrink_to_fit();
}

UnitDiskGraph::UnitDiskGraph(const std::vector<Vec2>& positions, double range) {
  const std::size_t n = positions.size();
  CFDS_EXPECT(n < std::numeric_limits<std::uint32_t>::max(),
              "node count exceeds graph index width");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  if (range <= 0.0) {
    // Degenerate range: the grid cell size would be zero, so fall back to the
    // all-pairs scan (only co-located points are adjacent at range 0).
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) {
        if (within_range(positions[i], positions[j], range)) {
          edges.emplace_back(i, j);
        }
      }
    }
    build_csr(n, edges);
    return;
  }

  // Bucket points into range-sized cells via head/next chains (one flat
  // `next` array instead of a vector per cell).
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::unordered_map<std::int64_t, std::uint32_t> head;
  head.reserve(n);
  std::vector<std::uint32_t> next(n, kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto cx = std::int64_t(std::floor(positions[i].x / range));
    const auto cy = std::int64_t(std::floor(positions[i].y / range));
    auto [it, inserted] = head.try_emplace(cell_key(cx, cy), i);
    if (!inserted) {
      next[i] = it->second;
      it->second = i;
    }
  }

  // Any neighbour of i lies in the 3x3 cell block around i's cell. Emitting
  // only j > i visits each candidate pair once.
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto ccx = std::int64_t(std::floor(positions[i].x / range));
    const auto ccy = std::int64_t(std::floor(positions[i].y / range));
    for (std::int64_t cx = ccx - 1; cx <= ccx + 1; ++cx) {
      for (std::int64_t cy = ccy - 1; cy <= ccy + 1; ++cy) {
        const auto it = head.find(cell_key(cx, cy));
        if (it == head.end()) continue;
        for (std::uint32_t j = it->second; j != kNone; j = next[j]) {
          if (j <= i) continue;
          if (!within_range(positions[i], positions[j], range)) continue;
          edges.emplace_back(i, j);
        }
      }
    }
  }
  build_csr(n, edges);
}

UnitDiskGraph UnitDiskGraph::brute_force(const std::vector<Vec2>& positions,
                                         double range) {
  const std::size_t n = positions.size();
  CFDS_EXPECT(n < std::numeric_limits<std::uint32_t>::max(),
              "node count exceeds graph index width");
  UnitDiskGraph graph;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (within_range(positions[i], positions[j], range)) {
        edges.emplace_back(i, j);
      }
    }
  }
  graph.build_csr(n, edges);
  return graph;
}

std::vector<std::size_t> UnitDiskGraph::hop_distances(std::size_t from) const {
  std::vector<std::size_t> dist(size(), std::numeric_limits<std::size_t>::max());
  std::queue<std::size_t> frontier;
  dist[from] = 0;
  frontier.push(from);
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (std::size_t v : neighbors(u)) {
      if (dist[v] == std::numeric_limits<std::size_t>::max()) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<std::size_t> UnitDiskGraph::components() const {
  constexpr auto kUnset = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> label(size(), kUnset);
  std::size_t next = 0;
  for (std::size_t seed = 0; seed < size(); ++seed) {
    if (label[seed] != kUnset) continue;
    label[seed] = next;
    std::queue<std::size_t> frontier;
    frontier.push(seed);
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      for (std::size_t v : neighbors(u)) {
        if (label[v] == kUnset) {
          label[v] = next;
          frontier.push(v);
        }
      }
    }
    ++next;
  }
  return label;
}

bool UnitDiskGraph::connected() const {
  if (size() == 0) return false;
  const auto dist = hop_distances(0);
  for (std::size_t d : dist) {
    if (d == std::numeric_limits<std::size_t>::max()) return false;
  }
  return true;
}

std::vector<std::size_t> UnitDiskGraph::isolated_nodes() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < size(); ++i) {
    if (degree(i) == 0) out.push_back(i);
  }
  return out;
}

}  // namespace cfds
