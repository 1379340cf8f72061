// Cluster-based FDS vs the flat gossip-style failure detector (van Renesse
// et al., the paper's [11]) on the same radio substrate: detection latency,
// per-node radio traffic, and false-suspicion behaviour under loss.
//
// This quantifies the paper's Section 1/3 argument: flat detectors ship
// O(network)-sized state everywhere, while the cluster-based service pays
// constant-size heartbeats plus per-cluster digests, and its redundancy
// absorbs loss that drives timeout-based detectors to false suspicions.

#include <benchmark/benchmark.h>

#include "baseline/gossip_fd.h"
#include "baseline/swim.h"
#include "bench/bench_util.h"
#include "bench/figures_rows.h"
#include "sim/scenario.h"

namespace cfds::bench {
namespace {

constexpr std::size_t kNodes = 400;
constexpr double kWidth = 650.0;
constexpr double kHeight = 400.0;

/// One detector's row: latency, coverage, traffic and false positives.
struct Outcome {
  double detection_latency_s = -1.0;
  double coverage = 0.0;
  double bytes_per_node_per_interval = 0.0;
  std::uint64_t false_positives = 0;
};

/// Bytes sent between two traffic snapshots per node per interval.
double bytes_per_node_interval(const TrafficTotals& before,
                               const TrafficTotals& after, int intervals) {
  return double(after.bytes - before.bytes) / double(kNodes) / intervals;
}

Outcome run_cfds(double p, std::uint64_t seed) {
  auto config = scenario_config(kWidth, kHeight, kNodes, p, seed);
  config.fds.heartbeat_interval = SimTime::seconds(2);
  Scenario scenario(config);
  scenario.setup();
  scenario.run_epochs(2);

  const NodeId victim = scenario.alive_ordinary_members().front();
  const auto before = traffic_totals(scenario.network());
  const SimTime crash_time = scenario.network().simulator().now();
  scenario.network().crash(victim);
  scenario.run_epochs(4);

  Outcome outcome;
  if (const auto first =
          scenario.metrics().first_detection_since(victim, crash_time)) {
    outcome.detection_latency_s = (first->when - crash_time).as_seconds();
  }
  outcome.coverage =
      knowledge_coverage(scenario.fds(), scenario.network(), victim);
  outcome.bytes_per_node_per_interval = bytes_per_node_interval(
      before, traffic_totals(scenario.network()), 4);
  outcome.false_positives = scenario.metrics().false_detections();
  return outcome;
}

Outcome run_gossip(double p, std::uint64_t seed) {
  const auto world = uniform_network(kNodes, kWidth, kHeight, p, seed);
  Network& network = *world;
  GossipConfig config;
  config.gossip_interval = SimTime::seconds(2);  // same cadence as the FDS
  config.fail_timeout = SimTime::seconds(10);    // 5 missed intervals
  GossipService gossip(network, config);
  gossip.run_rounds(6, SimTime::zero());

  const NodeId victim{std::uint32_t(kNodes / 2)};
  const auto before = traffic_totals(network);
  const SimTime crash_time = network.simulator().now();
  network.crash(victim);
  gossip.run_rounds(8, crash_time);

  Outcome outcome;
  const SimTime now = network.simulator().now();
  std::size_t observers = 0, suspecting = 0;
  for (GossipAgent* agent : gossip.agents()) {
    if (agent->id() == victim || !network.node(agent->id()).alive()) continue;
    ++observers;
    bool suspects_victim = false;
    for (NodeId s : agent->suspected(now)) {
      if (s == victim) {
        suspects_victim = true;
      } else if (network.node(s).alive()) {
        ++outcome.false_positives;
      }
    }
    if (suspects_victim) ++suspecting;
  }
  outcome.coverage = observers ? double(suspecting) / double(observers) : 0.0;
  // Latency model: counter freshness expires fail_timeout after the crash.
  outcome.detection_latency_s = config.fail_timeout.as_seconds();
  outcome.bytes_per_node_per_interval =
      bytes_per_node_interval(before, traffic_totals(network), 8);
  return outcome;
}

Outcome run_swim(double p, std::uint64_t seed) {
  const auto world = uniform_network(kNodes, kWidth, kHeight, p, seed);
  Network& network = *world;
  SwimConfig config;
  config.period = SimTime::seconds(2);  // same cadence as the FDS epochs
  SwimService swim(network, config);
  swim.run_periods(6, SimTime::zero());

  const NodeId victim{std::uint32_t(kNodes / 2)};
  const auto before = traffic_totals(network);
  const SimTime crash_time = network.simulator().now();
  network.crash(victim);

  Outcome outcome;
  for (int period = 0; period < 15; ++period) {
    swim.run_periods(1, network.simulator().now());
    if (outcome.detection_latency_s < 0.0 &&
        swim.declaration_coverage(victim) > 0.0) {
      outcome.detection_latency_s =
          (network.simulator().now() - crash_time).as_seconds();
    }
  }
  outcome.coverage = swim.declaration_coverage(victim);
  outcome.bytes_per_node_per_interval =
      bytes_per_node_interval(before, traffic_totals(network), 15);
  for (SwimAgent* agent : swim.agents()) {
    outcome.false_positives += agent->false_declarations();
  }
  return outcome;
}

void BM_GossipRound400(benchmark::State& state) {
  const auto network = uniform_network(kNodes, kWidth, kHeight, 0.1, 7);
  GossipService gossip(*network, GossipConfig{});
  for (auto _ : state) {
    gossip.run_rounds(1, network->simulator().now() + SimTime::millis(1));
  }
}

}  // namespace

void baselines_row() {
  banner("Baseline comparison",
         "cluster FDS vs gossip FD vs SWIM (400 nodes, same field)");
  std::printf("\n%-8s %-10s %12s %10s %14s %10s\n", "p", "detector",
              "latency(s)", "coverage", "B/node/intvl", "false+");
  const std::uint64_t seed = options().seed_or(91);
  const struct {
    const char* name;
    Outcome (*run)(double p, std::uint64_t seed);
  } detectors[] = {{"CFDS", &run_cfds}, {"gossip", &run_gossip},
                   {"SWIM", &run_swim}};
  for (double p : {0.0, 0.1, 0.3}) {
    for (const auto& detector : detectors) {
      const Outcome o = detector.run(p, seed);
      std::printf("%-8.2f %-10s %12.2f %10.3f %14.1f %10llu\n", p,
                  detector.name, o.detection_latency_s, o.coverage,
                  o.bytes_per_node_per_interval,
                  static_cast<unsigned long long>(o.false_positives));
    }
  }
  std::printf(
      "\nReading: the cluster FDS detects in ~one heartbeat interval with"
      "\norders-of-magnitude less traffic (constant-size frames vs O(n)"
      "\ngossip tables) and near-zero false detections, at the price of the"
      "\ncluster structure it maintains. The gossip detector's latency is"
      "\nits timeout by construction, and its coverage lags because stale"
      "\ncounter values keep circulating after the crash. SWIM probes are"
      "\ncheap per frame but randomized: only the victim's neighbours can"
      "\ndetect it, first detection waits for a probe to land on it plus"
      "\nthe suspicion hysteresis, and dissemination rides later probes —"
      "\nthe overhearing-based digest evidence is what the cluster design"
      "\nbuys over point-to-point probing in a broadcast medium.\n");
  register_epoch_timing("baselines", "cfds_epoch",
                        scenario_config(kWidth, kHeight, kNodes, 0.1, 7));
  register_timing("baselines", "gossip_round", BM_GossipRound400)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace cfds::bench
