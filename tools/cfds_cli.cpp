// cfds_cli — command-line driver for the cluster-based FDS simulator.
//
// Runs a full deployment (placement, clustering, FDS, inter-cluster
// forwarding) with a Poisson crash process and prints per-epoch health
// telemetry, optionally as CSV for plotting. `cfds_cli --help` lists the
// flags.
//
// Examples:
//   cfds_cli --nodes 500 --loss 0.2 --epochs 20 --crash-rate 1.5
//   cfds_cli --nodes 300 --mobility 2.0 --epochs 30 --csv > run.csv

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "event/simulator.h"
#include "net/mobility.h"
#include "radio/channel.h"
#include "radio/tracer.h"
#include "sim/scenario.h"

namespace {

using namespace cfds;

struct CliOptions {
  ScenarioConfig scenario;
  std::uint64_t epochs = 20;
  double crash_rate = 1.0;  // expected crashes per epoch
  double mobility_mps = 0.0;
  bool csv = false;
  bool trace = false;
};

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  options.scenario.node_count = 400;
  bool no_calendar = false;
  FlagSet flags;
  flags.add_value("--nodes", &options.scenario.node_count,
                  "deployment size (default 400)");
  flags.add_value("--width", &options.scenario.width, "field width, metres");
  flags.add_value("--height", &options.scenario.height, "field height, metres");
  flags.add_value("--range", &options.scenario.range, "transmission range");
  flags.add_value("--loss", &options.scenario.loss_p,
                  "frame-loss probability");
  flags.add_value("--epochs", &options.epochs, "FDS executions to run");
  flags.add_millis("--interval-ms", &options.scenario.fds.heartbeat_interval,
                   "heartbeat interval phi, ms");
  flags.add_value("--crash-rate", &options.crash_rate,
                  "expected crashes/epoch");
  flags.add_flag("--distributed-formation",
                 &options.scenario.distributed_formation,
                 "run the real formation protocol");
  flags.add_value("--mobility", &options.mobility_mps,
                  "random-waypoint speed, m/s (0 = static)");
  flags.add_flag("--csv", &options.csv, "machine-readable output");
  flags.add_flag("--trace", &options.trace, "print the frame-kind mix");
  flags.add_value("--seed", &options.scenario.seed, "RNG seed (default 1)");
  flags.add_flag("--no-calendar", &no_calendar,
                 "use the binary-heap event queue (calendar-queue oracle)");
  flags.parse_all_or_exit(argc, argv, 2);
  // Values the library would reject with an abort are usage errors here.
  const double range = options.scenario.range;
  const double loss = options.scenario.loss_p;
  if (const char* error =
          options.scenario.fds.violation(ChannelConfig{}.t_hop)) {
    flags.usage_error(argv[0], error, 2);
  }
  if (!(range > 0.0)) flags.usage_error(argv[0], "--range must be positive", 2);
  if (!(loss >= 0.0 && loss <= 1.0)) {
    flags.usage_error(argv[0], "--loss must be in [0, 1]", 2);
  }
  // Before the scenario constructs its Simulator.
  if (no_calendar) Simulator::set_default_queue_mode(QueueMode::kHeap);
  return options;
}

/// Poisson sample by inversion (rates here are small).
std::uint64_t poisson(double lambda, Rng& rng) {
  const double u = rng.uniform();
  double acc = std::exp(-lambda);
  double cdf = acc;
  std::uint64_t k = 0;
  while (u > cdf && k < 1000) {
    ++k;
    acc *= lambda / double(k);
    cdf += acc;
  }
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options = parse(argc, argv);

  Scenario scenario(options.scenario);
  FrameTracer tracer;
  scenario.setup();
  if (options.trace) tracer.attach(scenario.network().channel());

  RandomWaypointMobility* mobility = nullptr;
  WaypointConfig wp;
  wp.width = options.scenario.width;
  wp.height = options.scenario.height;
  if (options.mobility_mps > 0.0) {
    wp.min_speed_mps = options.mobility_mps / 2.0;
    wp.max_speed_mps = options.mobility_mps;
    static RandomWaypointMobility instance(scenario.network(), wp,
                                           Rng(options.scenario.seed ^ 0x40B1));
    const SimTime phi = options.scenario.fds.heartbeat_interval;
    const SimTime horizon = scenario.network().simulator().now() +
                            std::int64_t(options.epochs + 2) * phi;
    instance.run(scenario.network().simulator().now(), horizon);
    mobility = &instance;
  }

  if (!options.csv) {
    std::printf("deployed %zu nodes (%zu clusters, %.0f%% affiliated),"
                " p=%.2f, phi=%.1fs\n",
                options.scenario.node_count, scenario.cluster_count(),
                100.0 * scenario.affiliation_rate(), options.scenario.loss_p,
                options.scenario.fds.heartbeat_interval.as_seconds());
    std::printf("%-7s %7s %8s %8s %8s %10s %10s\n", "epoch", "alive",
                "crashes", "detect", "false", "coverage", "frames");
  } else {
    std::printf("epoch,alive,crashes,detections,false_detections,"
                "coverage,frames\n");
  }

  Rng chaos(options.scenario.seed ^ 0xC4A5);
  std::vector<std::pair<NodeId, SimTime>> casualties;  // (victim, crash)
  std::uint64_t frames_before = 0;

  for (std::uint64_t epoch = 0; epoch < options.epochs; ++epoch) {
    const std::uint64_t crashes = poisson(options.crash_rate, chaos);
    for (std::uint64_t c = 0; c < crashes; ++c) {
      const std::vector<NodeId> candidates = scenario.alive_ordinary_members();
      if (candidates.empty()) break;
      const NodeId victim = candidates[chaos.below(candidates.size())];
      scenario.network().crash(victim);
      casualties.emplace_back(victim, scenario.network().simulator().now());
    }

    scenario.run_epochs(1);

    const double coverage =
        casualties.empty()
            ? 1.0
            : knowledge_coverage(scenario.fds(), scenario.network(),
                                 casualties.back().first);
    const auto totals = traffic_totals(scenario.network());
    const std::uint64_t epoch_frames = totals.frames - frames_before;
    frames_before = totals.frames;

    if (!options.csv) {
      std::printf("%-7llu %7zu %8llu %8zu %8zu %10.3f %10llu\n",
                  static_cast<unsigned long long>(epoch),
                  scenario.network().alive_count(),
                  static_cast<unsigned long long>(crashes),
                  scenario.metrics().true_detections(),
                  scenario.metrics().false_detections(), coverage,
                  static_cast<unsigned long long>(epoch_frames));
    } else {
      std::printf("%llu,%zu,%llu,%zu,%zu,%.4f,%llu\n",
                  static_cast<unsigned long long>(epoch),
                  scenario.network().alive_count(),
                  static_cast<unsigned long long>(crashes),
                  scenario.metrics().true_detections(),
                  scenario.metrics().false_detections(), coverage,
                  static_cast<unsigned long long>(epoch_frames));
    }
  }

  if (!options.csv) {
    std::size_t undetected = 0;
    for (const auto& [victim, crashed_at] : casualties) {
      if (!scenario.metrics().first_detection_since(victim, crashed_at)) {
        ++undetected;
      }
    }
    std::printf("\nsummary: %zu crashes, %zu detections (%zu false),"
                " %zu undetected\n",
                casualties.size(), scenario.metrics().detections().size(),
                scenario.metrics().false_detections(), undetected);
    if (mobility != nullptr) {
      std::printf("mobility: %.0f m travelled in total\n",
                  mobility->total_distance());
    }
  }
  if (options.trace) {
    std::printf("\nframe mix:\n");
    for (const auto& [kind, stats] : tracer.by_kind()) {
      std::printf("  %-12s %10llu frames %12llu bytes\n", kind.c_str(),
                  static_cast<unsigned long long>(stats.frames),
                  static_cast<unsigned long long>(stats.bytes));
    }
  }
  return 0;
}
