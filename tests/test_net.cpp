// Unit tests for src/net: node runtime, topologies, graphs, network.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/statistics.h"
#include "net/graph.h"
#include "net/network.h"
#include "net/topology.h"

namespace cfds {
namespace {

NetworkConfig small_config() {
  NetworkConfig config;
  config.seed = 3;
  return config;
}

/// Owns test callbacks and registers each on a node through the raw
/// (function, context) handler form.
class Listeners {
 public:
  using Callback = std::function<void(const Reception&)>;

  void listen(Node& node, Callback callback) {
    callbacks_.push_back(std::make_unique<Callback>(std::move(callback)));
    node.add_frame_handler(
        [](void* ctx, const Reception& reception) {
          (*static_cast<Callback*>(ctx))(reception);
        },
        callbacks_.back().get());
  }

 private:
  std::vector<std::unique_ptr<Callback>> callbacks_;
};

TEST(Node, EnergyAccountingFollowsTraffic) {
  Network net(small_config(), std::make_unique<PerfectLinks>());
  Node& a = net.add_node({0, 0});
  Node& b = net.add_node({10, 0});
  (void)b;
  const double before = a.remaining_energy_uj();
  struct P final : Payload {
    P() : Payload(PayloadKind::kTest) {}
    [[nodiscard]] std::string_view kind() const override { return "p"; }
    [[nodiscard]] std::size_t size_bytes() const override { return 100; }
  };
  a.radio().send(std::make_shared<P>());
  net.simulator().run_to_completion();
  EXPECT_NEAR(before - a.remaining_energy_uj(), kTxBaseUj + 100 * kTxPerByteUj,
              1e-9);
}

TEST(Node, CrashIsFailStop) {
  Network net(small_config(), std::make_unique<PerfectLinks>());
  Node& a = net.add_node({0, 0});
  int frames = 0;
  Listeners listeners;
  listeners.listen(a, [&](const Reception&) { ++frames; });
  EXPECT_TRUE(a.alive());
  a.crash();
  EXPECT_FALSE(a.alive());
  EXPECT_FALSE(a.radio().powered());
  EXPECT_EQ(frames, 0);
}

TEST(Node, HandlersRunInRegistrationOrder) {
  Network net(small_config(), std::make_unique<PerfectLinks>());
  Node& a = net.add_node({0, 0});
  Node& b = net.add_node({10, 0});
  std::vector<int> order;
  Listeners listeners;
  listeners.listen(b, [&](const Reception&) { order.push_back(1); });
  listeners.listen(b, [&](const Reception&) { order.push_back(2); });
  struct P final : Payload {
    P() : Payload(PayloadKind::kTest) {}
    [[nodiscard]] std::string_view kind() const override { return "p"; }
    [[nodiscard]] std::size_t size_bytes() const override { return 1; }
  };
  a.radio().send(std::make_shared<P>());
  net.simulator().run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Network, SequentialNidAssignment) {
  Network net(small_config(), std::make_unique<PerfectLinks>());
  net.add_nodes({{0, 0}, {1, 1}, {2, 2}});
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_TRUE(net.has_node(NodeId{0}));
  EXPECT_TRUE(net.has_node(NodeId{2}));
  EXPECT_FALSE(net.has_node(NodeId{3}));
  EXPECT_EQ(net.node(NodeId{1}).position(), (Vec2{1, 1}));
}

TEST(Network, ScheduledCrashFiresAtTime) {
  Network net(small_config(), std::make_unique<PerfectLinks>());
  net.add_node({0, 0});
  net.schedule_crash(NodeId{0}, SimTime::seconds(5));
  net.simulator().run_until(SimTime::seconds(4));
  EXPECT_TRUE(net.node(NodeId{0}).alive());
  net.simulator().run_until(SimTime::seconds(6));
  EXPECT_FALSE(net.node(NodeId{0}).alive());
  EXPECT_EQ(net.alive_count(), 0u);
}

TEST(Topology, UniformDiskStaysInDisk) {
  Rng rng(1);
  const Vec2 center{50, 50};
  for (Vec2 p : uniform_disk(500, center, 30.0, rng)) {
    EXPECT_LE(distance(p, center), 30.0 + 1e-9);
  }
}

TEST(Topology, UniformDiskIsAreaUniform) {
  // Inner disk of half radius should hold ~25% of the points.
  Rng rng(2);
  const auto points = uniform_disk(40000, {0, 0}, 100.0, rng);
  int inner = 0;
  for (Vec2 p : points) {
    if (p.norm() <= 50.0) ++inner;
  }
  EXPECT_NEAR(double(inner) / double(points.size()), 0.25, 0.01);
}

TEST(Topology, RectAndGridBounds) {
  Rng rng(3);
  for (Vec2 p : uniform_rect(200, 40.0, 20.0, rng)) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 40.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 20.0);
  }
  const auto grid = jittered_grid(3, 4, 10.0, 0.0, rng);
  EXPECT_EQ(grid.size(), 12u);
  EXPECT_EQ(grid[5], (Vec2{10.0, 10.0}));  // row 1, col 1
}

TEST(Topology, PoissonFieldMeanCount) {
  Rng rng(4);
  RunningStats counts;
  for (int i = 0; i < 200; ++i) {
    counts.add(double(poisson_field(0.01, 100.0, 50.0, rng).size()));
  }
  EXPECT_NEAR(counts.mean(), 50.0, 2.5);  // lambda = 0.01 * 5000
}

TEST(Topology, AnalysisClusterShape) {
  Rng rng(5);
  const auto pts = analysis_cluster(50, {10, 20}, 100.0, rng);
  EXPECT_EQ(pts.size(), 50u);
  EXPECT_EQ(pts.front(), (Vec2{10, 20}));  // the CH at the centre
  const auto worst = analysis_cluster_worst_case(50, {0, 0}, 100.0, rng);
  EXPECT_NEAR(worst.back().norm(), 100.0, 1e-9);  // pinned to circumference
}

TEST(UnitDiskGraph, AdjacencyAndDegrees) {
  const std::vector<Vec2> pts{{0, 0}, {5, 0}, {11, 0}};
  const UnitDiskGraph g(pts, 6.0);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
}

TEST(UnitDiskGraph, HopDistances) {
  const std::vector<Vec2> pts{{0, 0}, {5, 0}, {10, 0}, {15, 0}, {100, 0}};
  const UnitDiskGraph g(pts, 6.0);
  const auto dist = g.hop_distances(0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], std::numeric_limits<std::size_t>::max());
}

TEST(UnitDiskGraph, ComponentsAndConnectivity) {
  const std::vector<Vec2> pts{{0, 0}, {5, 0}, {100, 0}, {105, 0}};
  const UnitDiskGraph g(pts, 6.0);
  const auto comp = g.components();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_FALSE(g.connected());
}

TEST(UnitDiskGraph, IsolatedNodes) {
  const std::vector<Vec2> pts{{0, 0}, {5, 0}, {1000, 1000}};
  const UnitDiskGraph g(pts, 6.0);
  const auto isolated = g.isolated_nodes();
  ASSERT_EQ(isolated.size(), 1u);
  EXPECT_EQ(isolated[0], 2u);
}

// --- Grid build vs all-pairs oracle -----------------------------------

/// Asserts the grid-built graph has exactly the oracle's adjacency,
/// neighbour-by-neighbour (both emit sorted lists, so spans must match).
void expect_same_adjacency(const std::vector<Vec2>& pts, double range) {
  const UnitDiskGraph grid(pts, range);
  const UnitDiskGraph brute = UnitDiskGraph::brute_force(pts, range);
  ASSERT_EQ(grid.size(), brute.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto g = grid.neighbors(i);
    const auto b = brute.neighbors(i);
    ASSERT_EQ(g.size(), b.size()) << "node " << i;
    for (std::size_t k = 0; k < g.size(); ++k) {
      EXPECT_EQ(g[k], b[k]) << "node " << i << " neighbor " << k;
    }
  }
}

TEST(UnitDiskGraph, GridMatchesBruteForceOnUniformFields) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    expect_same_adjacency(uniform_rect(300, 700.0, 450.0, rng), 100.0);
  }
}

TEST(UnitDiskGraph, GridMatchesBruteForceOnClusteredFields) {
  // Dense blobs far apart: many nodes share a grid cell, most cells empty.
  Rng rng(11);
  std::vector<Vec2> pts;
  for (const Vec2 center : {Vec2{0, 0}, Vec2{500, 20}, Vec2{250, 900}}) {
    const auto blob = uniform_disk(80, center, 40.0, rng);
    pts.insert(pts.end(), blob.begin(), blob.end());
  }
  expect_same_adjacency(pts, 100.0);
}

// --- Channel grid under mobility vs the unit-disk oracle ---------------

/// Channel::reindex maintains the delivery grid incrementally as radios
/// move. After bursts of random moves, every radio's zero-loss broadcast
/// must reach exactly its neighbours in a from-scratch UnitDiskGraph over
/// the final placement; a stale cell entry or cell-block cache shows up as
/// a missing or extra receiver.
TEST(ChannelGrid, MovedRadiosReachExactlyTheirUnitDiskNeighbours) {
  struct Ping final : Payload {
    Ping() : Payload(PayloadKind::kTest) {}
    [[nodiscard]] std::string_view kind() const override { return "ping"; }
    [[nodiscard]] std::size_t size_bytes() const override { return 1; }
  };
  constexpr std::uint32_t kNodes = 300;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    Rng rng(seed);
    Network net(small_config(), std::make_unique<PerfectLinks>());
    net.add_nodes(uniform_rect(kNodes, 700.0, 450.0, rng));
    std::vector<std::vector<std::uint32_t>> heard(kNodes);
    Listeners listeners;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      listeners.listen(net.node(NodeId{i}), [&heard, i](const Reception& r) {
        heard[i].push_back(r.sender.value());
      });
    }
    // Interleave bursts of moves with oracle checks, so later moves run
    // against cell-block caches the earlier broadcasts filled. Short
    // jitters mostly stay inside a cell; teleports cross many cell
    // boundaries, including into cells no radio occupied before.
    for (int burst = 0; burst < 4; ++burst) {
      for (int k = 0; k < 100; ++k) {
        Radio& radio =
            net.node(NodeId{std::uint32_t(rng.below(kNodes))}).radio();
        Vec2 p = radio.position();
        if (rng.bernoulli(0.25)) {
          p = Vec2{rng.uniform(-300.0, 1000.0), rng.uniform(-300.0, 750.0)};
        } else {
          p.x += rng.uniform(-30.0, 30.0);
          p.y += rng.uniform(-30.0, 30.0);
        }
        radio.set_position(p);
      }
      std::vector<Vec2> positions;
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        heard[i].clear();
        positions.push_back(net.node(NodeId{i}).position());
      }
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        net.node(NodeId{i}).radio().send(std::make_shared<Ping>());
      }
      net.simulator().run_to_completion();
      const UnitDiskGraph oracle(positions, net.channel().config().range);
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        std::sort(heard[i].begin(), heard[i].end());
        const auto expected = oracle.neighbors(i);
        ASSERT_EQ(heard[i].size(), expected.size())
            << "seed " << seed << " burst " << burst << " node " << i;
        EXPECT_TRUE(
            std::equal(heard[i].begin(), heard[i].end(), expected.begin()));
      }
    }
  }
}

TEST(UnitDiskGraph, GridMatchesBruteForceOnDegenerateFields) {
  // All nodes co-located: complete graph, one grid cell.
  expect_same_adjacency(std::vector<Vec2>(50, Vec2{3.0, 4.0}), 10.0);
  // Nodes exactly on cell boundaries and exactly at distance == range.
  const std::vector<Vec2> boundary{{0, 0},   {100, 0},  {200, 0},
                                   {0, 100}, {100, 100}, {-100, 0}};
  expect_same_adjacency(boundary, 100.0);
  // Collinear line with spacing just under the range.
  std::vector<Vec2> line;
  for (int i = 0; i < 40; ++i) line.push_back({double(i) * 99.5, 0.0});
  expect_same_adjacency(line, 100.0);
}

TEST(UnitDiskGraph, GridMatchesBruteForceOnTinyFields) {
  expect_same_adjacency({}, 100.0);            // empty
  expect_same_adjacency({{5.0, 5.0}}, 100.0);  // singleton
  Rng rng(23);
  expect_same_adjacency(uniform_rect(2, 50.0, 50.0, rng), 100.0);
}

TEST(UnitDiskGraph, NonPositiveRangeYieldsNoEdges) {
  Rng rng(5);
  const auto pts = uniform_rect(20, 100.0, 100.0, rng);
  const UnitDiskGraph g(pts, 0.0);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g.degree(i), 0u);
}

}  // namespace
}  // namespace cfds
