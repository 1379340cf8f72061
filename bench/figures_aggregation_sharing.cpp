// Aggregation piggybacking (Section 6's concluding proposal): embedding the
// FDS in data-aggregation traffic so one frame serves both services.
//
// Quantifies the two claimed benefits on a live multi-cluster deployment:
//   1. energy — frames and bytes per epoch with separate heartbeats vs
//      measurement frames that ARE heartbeats;
//   2. fidelity — the global aggregate every CH reconstructs from backbone
//      flooding, vs ground truth, as loss increases (failure detection
//      keeps running off the same frames throughout).

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "aggregation/service.h"
#include "bench/bench_util.h"
#include "bench/figures_rows.h"
#include "cluster/directory.h"
#include "radio/tracer.h"
#include "sim/metrics.h"

namespace cfds::bench {
namespace {

constexpr std::size_t kNodes = 300;

struct Deployment {
  Deployment(bool share, double loss_p, std::uint64_t seed = 47) {
    network = uniform_network(kNodes, 550.0, 400.0, loss_p, seed);
    std::vector<Vec2> positions;
    for (const Node* node : network->nodes()) {
      positions.push_back(node->position());
    }
    const auto directory = ClusterDirectory::build(positions, 100.0);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      views.push_back(std::make_unique<MembershipView>(NodeId{i}));
      ptrs.push_back(views.back().get());
    }
    directory.install(*network, ptrs);

    FdsConfig fds_config;
    fds_config.heartbeat_interval = SimTime::seconds(2);
    fds_config.external_heartbeats = share;
    fds = std::make_unique<FdsService>(*network, ptrs, fds_config);
    aggregation = std::make_unique<AggregationService>(
        *network, *fds, ptrs, [](NodeId node, std::uint64_t) {
          // Synthetic temperature field: position-stable pseudo-readings.
          std::uint64_t sm = node.value() * 2654435761u;
          return 15.0 + 20.0 * double(splitmix64(sm) >> 11) * 0x1.0p-53;
        });
  }

  std::unique_ptr<Network> network;
  std::vector<std::unique_ptr<MembershipView>> views;
  std::vector<MembershipView*> ptrs;
  std::unique_ptr<FdsService> fds;
  std::unique_ptr<AggregationService> aggregation;
};

void print_energy_table() {
  banner("Section 6 extension", "message sharing between FDS and aggregation");
  std::printf("\n-- frame/byte cost per epoch (%zu nodes, p = 0.1) --\n",
              kNodes);
  std::printf("%-22s %12s %12s %12s %14s\n", "mode", "frames", "bytes",
              "heartbeats", "frames/node");
  for (bool share : {false, true}) {
    Deployment d(share, 0.1);
    FrameTracer tracer;
    tracer.attach(d.network->channel());
    d.aggregation->run_epochs(4, SimTime::zero());
    const auto totals = traffic_totals(*d.network);
    std::printf("%-22s %12.0f %12.0f %12.0f %14.2f\n",
                share ? "shared (piggyback)" : "separate frames",
                double(totals.frames) / 4.0, double(totals.bytes) / 4.0,
                double(tracer.frames_of("heartbeat")) / 4.0,
                double(totals.frames) / 4.0 / double(kNodes));
  }
  std::printf("(sharing drops the bare heartbeat, one frame per node per"
              " epoch; the total falls by less because the other frames"
              " follow each run's own loss draws; bytes grow slightly per"
              " frame but fall in total)\n");
}

void print_fidelity_table() {
  std::printf("\n-- global-aggregate fidelity vs loss (shared mode) --\n");
  std::printf("%-6s %12s %12s %12s %12s\n", "p", "count/truth", "avg err",
              "min err", "detections-ok");
  for (double p : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    Deployment d(true, p);
    MetricsCollector metrics;
    metrics.attach(*d.fds, *d.network);

    // Ground truth over affiliated nodes.
    Aggregate truth;
    for (auto& view : d.views) {
      if (view->affiliated()) {
        truth.add(d.aggregation->sensor()(view->self(), 0));
      }
    }

    d.aggregation->run_epochs(2, SimTime::zero());

    // Read the global view at the best-informed CH of the last epoch.
    Aggregate best;
    for (AggregationAgent* agent : d.aggregation->agents()) {
      if (!d.ptrs[agent->id().value()]->is_clusterhead()) continue;
      const Aggregate view = agent->global_view(1);
      if (view.count > best.count) best = view;
    }

    std::printf("%-6.2f %12.3f %12.3f %12.3f %12s\n", p,
                double(best.count) / double(truth.count),
                std::abs(best.average() - truth.average()),
                std::abs(best.min - truth.min),
                metrics.false_detections() == 0 ? "yes" : "with-fp");
  }
  std::printf("(count/truth < 1 under loss: readings or cluster summaries"
              " dropped this epoch; averages stay close because losses are"
              " unbiased)\n");
}

void BM_AggregationEpoch(benchmark::State& state) {
  Deployment d(state.range(0) != 0, 0.1);
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    d.aggregation->schedule_epoch(
        epoch, d.network->simulator().now() + SimTime::millis(1));
    d.network->simulator().run_until(d.network->simulator().now() +
                                     SimTime::seconds(2));
    ++epoch;
  }
}

}  // namespace

void aggregation_sharing_row() {
  print_energy_table();
  print_fidelity_table();
  register_timing("aggregation_sharing", "epoch", BM_AggregationEpoch)
      ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
}

}  // namespace cfds::bench
