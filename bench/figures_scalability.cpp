// Scalability (Section 3's claim): the two-tier architecture keeps per-node
// cost flat as the population grows, and backbone dissemination beats flat
// flooding by roughly the average cluster population.
//
// Fields grow with the node count at constant density (~50 nodes per
// transmission disk, the paper's regime), so cluster sizes stay constant
// while the cluster count scales. Wall time per epoch versus n is the
// BM_Figure/scalability/epoch/<n> timing; perfbench's
// peak_rss_bytes_per_node is the memory measure.

#include <benchmark/benchmark.h>

#include "baseline/flooding.h"
#include "bench/bench_util.h"
#include "bench/figures_rows.h"
#include "net/topology.h"
#include "sim/scenario.h"

namespace cfds::bench {
namespace {

const std::vector<std::size_t> kSizes = {125, 250, 500, 1000, 2000};

void BM_CentralizedFormationAtScale(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto config = paper_density(n);
  Rng rng(19);
  const auto positions =
      uniform_rect(config.node_count, config.width, config.height, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ClusterDirectory::build(positions, 100.0).clusters().size());
  }
}

}  // namespace

void scalability_row() {
  banner("Scalability", "per-node cost and dissemination vs size");
  std::printf("\n%-8s %10s %12s %16s %14s %16s\n", "nodes", "clusters",
              "FDS frames", "frames/node", "flood frames", "backbone fwd");

  // Each population size is an independent simulation, so the study fans
  // out across the runner's thread pool; rows are collected per index and
  // printed in size order afterwards.
  const auto seed = options().seed_or(19);
  struct Row {
    std::size_t clusters = 0;
    double fds_frames = 0.0;
    std::uint64_t flood_frames = 0;
    std::uint64_t backbone_forwards = 0;
  };
  std::vector<Row> rows(kSizes.size());
  pool().parallel_for(kSizes.size(), [&](std::size_t index) {
    const std::size_t n = kSizes[index];
    ScenarioConfig config = paper_density(n);
    config.seed = seed;  // loss_p keeps its default, 0.1
    Scenario scenario(config);
    scenario.setup();

    const auto before = traffic_totals(scenario.network());
    scenario.run_epochs(1);
    const auto after_epoch = traffic_totals(scenario.network());
    const double fds_frames = double(after_epoch.frames - before.frames);

    // Dissemination cost of one failure report: crash a member, count the
    // backbone forwards, and compare with flooding the same news flat.
    scenario.network().crash(scenario.alive_ordinary_members().front());
    scenario.run_epochs(1);
    const std::uint64_t backbone_forwards =
        scenario.forwarder()->stats().reports_forwarded +
        scenario.forwarder()->stats().gw_retries +
        scenario.forwarder()->stats().bgw_assists;

    // Flat flooding of one report on an identical field.
    const auto flood_net =
        uniform_network(n, config.width, config.height, 0.1, seed);
    FloodService flood(*flood_net);
    flood.agent_for(NodeId{0}).originate({NodeId{1}});
    flood_net->simulator().run_to_completion();

    rows[index] = Row{scenario.cluster_count(), fds_frames,
                      flood.total_rebroadcasts() + 1, backbone_forwards};
  });

  for (std::size_t index = 0; index < kSizes.size(); ++index) {
    const Row& row = rows[index];
    std::printf("%-8zu %10zu %12.0f %16.1f %14llu %16llu\n", kSizes[index],
                row.clusters, row.fds_frames,
                row.fds_frames / double(kSizes[index]),
                static_cast<unsigned long long>(row.flood_frames),
                static_cast<unsigned long long>(row.backbone_forwards));
  }
  std::printf(
      "\nReading: frames/node/epoch stays ~flat with population (two-tier"
      "\nscalability), and the backbone carries a report in ~one frame per"
      "\ncluster versus one frame per NODE for flat flooding.\n");

  for (std::size_t n : kSizes) {
    ScenarioConfig config = paper_density(n);
    config.seed = 19;
    register_epoch_timing("scalability", "epoch/" + std::to_string(n), config);
  }
  register_timing("scalability", "centralized_formation",
                  BM_CentralizedFormationAtScale)
      ->Arg(250)->Arg(1000)->Unit(benchmark::kMillisecond);
}

}  // namespace cfds::bench
