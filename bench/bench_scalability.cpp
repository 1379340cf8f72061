// Scalability (Section 3's claim): the two-tier architecture keeps per-node
// cost flat as the population grows, and backbone dissemination beats flat
// flooding by roughly the average cluster population.
//
// Fields grow with the node count at constant density (~50 nodes per
// transmission disk, the paper's regime), so cluster sizes stay constant
// while the cluster count scales.

#include <benchmark/benchmark.h>

#include <chrono>

#include "baseline/flooding.h"
#include "bench/bench_util.h"
#include "net/topology.h"
#include "sim/scenario.h"

namespace {

using namespace cfds;

void print_study(runner::JsonlResultSink* sink) {
  bench::banner("Scalability", "per-node cost and dissemination vs size");
  std::printf("\n%-8s %10s %12s %16s %14s %16s %14s %12s\n", "nodes",
              "clusters", "FDS frames", "frames/node", "flood frames",
              "backbone fwd", "events/sec", "bytes/node");

  // Each population size is an independent simulation, so the study fans
  // out across the runner's thread pool; rows are collected per index and
  // printed in size order afterwards.
  const std::vector<std::size_t> sizes = {125, 250, 500, 1000, 2000};
  const auto seed = bench::options().seed_or(19);
  struct Row {
    std::size_t clusters = 0;
    double fds_frames = 0.0;
    std::uint64_t flood_frames = 0;
    std::uint64_t backbone_forwards = 0;
    double events_per_sec = 0.0;
    std::uint64_t peak_rss = 0;
  };
  std::vector<Row> rows(sizes.size());
  bench::pool().parallel_for(sizes.size(), [&](std::size_t index) {
    const std::size_t n = sizes[index];
    double width = 0.0, height = 0.0;
    bench::field_for(n, width, height);

    const auto config = bench::scenario_config(width, height, n, 0.1, seed);
    Scenario scenario(config);
    scenario.setup();

    const auto before = traffic_totals(scenario.network());
    const std::uint64_t events_before =
        scenario.network().simulator().events_executed();
    const auto t0 = std::chrono::steady_clock::now();
    scenario.run_epochs(1);
    const double epoch_ms = bench::ms_since(t0);
    const std::uint64_t epoch_events =
        scenario.network().simulator().events_executed() - events_before;
    const auto after_epoch = traffic_totals(scenario.network());
    const double fds_frames = double(after_epoch.frames - before.frames);

    // Dissemination cost of one failure report: crash a member, count the
    // backbone forwards, and compare with flooding the same news flat.
    NodeId victim = NodeId::invalid();
    for (MembershipView* view : scenario.views()) {
      if (view->role() == Role::kOrdinaryMember) {
        victim = view->self();
        break;
      }
    }
    scenario.network().crash(victim);
    scenario.run_epochs(1);
    const std::uint64_t backbone_forwards =
        scenario.forwarder()->stats().reports_forwarded +
        scenario.forwarder()->stats().gw_retries +
        scenario.forwarder()->stats().bgw_assists;

    // Flat flooding of one report on an identical field.
    NetworkConfig flood_config;
    flood_config.seed = seed;
    Network flood_net(flood_config, std::make_unique<BernoulliLoss>(0.1));
    Rng placement(seed);
    flood_net.add_nodes(uniform_rect(n, width, height, placement));
    FloodService flood(flood_net);
    flood.agent_for(NodeId{0}).originate({NodeId{1}});
    flood_net.simulator().run_to_completion();

    rows[index] = Row{scenario.cluster_count(), fds_frames,
                      flood.total_rebroadcasts() + 1, backbone_forwards,
                      double(epoch_events) / epoch_ms * 1000.0,
                      // Shared by concurrent trials, so an upper bound; run
                      // --threads 1 for clean per-size numbers.
                      bench::peak_rss_bytes()};
  });

  for (std::size_t index = 0; index < sizes.size(); ++index) {
    const Row& row = rows[index];
    const double bytes_per_node = double(row.peak_rss) / double(sizes[index]);
    std::printf("%-8zu %10zu %12.0f %16.1f %14llu %16llu %14.0f %12.0f\n",
                sizes[index], row.clusters, row.fds_frames,
                row.fds_frames / double(sizes[index]),
                static_cast<unsigned long long>(row.flood_frames),
                static_cast<unsigned long long>(row.backbone_forwards),
                row.events_per_sec, bytes_per_node);
    if (sink != nullptr) {
      runner::BenchRecord record;
      record.bench = "scalability_epoch";
      record.label = bench::options().label;
      record.n = int(sizes[index]);
      record.metric = "events_per_sec";
      record.value = row.events_per_sec;
      sink->write(record);
      record.metric = "peak_rss_bytes";
      record.value = double(row.peak_rss);
      sink->write(record);
      record.metric = "bytes_per_node";
      record.value = bytes_per_node;
      sink->write(record);
    }
  }
  std::printf(
      "\nReading: frames/node/epoch stays ~flat with population (two-tier"
      "\nscalability), and the backbone carries a report in ~one frame per"
      "\ncluster versus one frame per NODE for flat flooding.\n");
}

void BM_FdsEpochAtScale(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  double width = 0.0, height = 0.0;
  bench::field_for(n, width, height);
  const auto config = bench::scenario_config(width, height, n, 0.1, 19);
  Scenario scenario(config);
  scenario.setup();
  for (auto _ : state) {
    scenario.run_epochs(1);
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_FdsEpochAtScale)
    ->Arg(125)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_CentralizedFormationAtScale(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  double width = 0.0, height = 0.0;
  bench::field_for(n, width, height);
  Rng rng(19);
  const auto positions = uniform_rect(n, width, height, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ClusterDirectory::build(positions, 100.0).clusters().size());
  }
}
BENCHMARK(BM_CentralizedFormationAtScale)
    ->Arg(250)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  cfds::bench::parse_common_args(argc, argv);
  const auto sink = cfds::bench::make_sink();
  print_study(sink.get());
  return cfds::bench::run_timings(argc, argv);
}
