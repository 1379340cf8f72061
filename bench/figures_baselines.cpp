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
#include "net/topology.h"
#include "sim/scenario.h"

namespace cfds::bench {
namespace {

constexpr std::size_t kNodes = 400;
constexpr double kWidth = 650.0;
constexpr double kHeight = 400.0;

struct CfdsOutcome {
  double detection_latency_s = -1.0;
  double coverage = 0.0;
  double bytes_per_node_per_interval = 0.0;
  std::size_t false_detections = 0;
};

CfdsOutcome run_cfds(double p, std::uint64_t seed) {
  auto config = scenario_config(kWidth, kHeight, kNodes, p, seed);
  config.heartbeat_interval = SimTime::seconds(2);
  Scenario scenario(config);
  scenario.setup();
  scenario.run_epochs(2);

  NodeId victim = NodeId::invalid();
  for (MembershipView* view : scenario.views()) {
    if (view->role() == Role::kOrdinaryMember) {
      victim = view->self();
      break;
    }
  }
  const auto before = traffic_totals(scenario.network());
  const SimTime crash_time = scenario.network().simulator().now();
  scenario.network().crash(victim);
  scenario.run_epochs(4);
  const auto after = traffic_totals(scenario.network());

  CfdsOutcome outcome;
  if (const auto first = scenario.metrics().first_detection(victim)) {
    outcome.detection_latency_s = (first->when - crash_time).as_seconds();
  }
  outcome.coverage =
      knowledge_coverage(scenario.fds(), scenario.network(), victim);
  outcome.bytes_per_node_per_interval =
      double(after.bytes - before.bytes) / double(kNodes) / 4.0;
  outcome.false_detections = scenario.metrics().false_detections();
  return outcome;
}

struct GossipOutcome {
  double detection_latency_s = -1.0;
  double coverage = 0.0;
  double bytes_per_node_per_interval = 0.0;
  std::size_t false_suspicions = 0;
};

GossipOutcome run_gossip(double p, std::uint64_t seed) {
  NetworkConfig net_config;
  net_config.seed = seed;
  Network network(net_config, std::make_unique<BernoulliLoss>(p));
  Rng placement(seed);
  network.add_nodes(uniform_rect(kNodes, kWidth, kHeight, placement));

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
  const auto after = traffic_totals(network);

  GossipOutcome outcome;
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
        ++outcome.false_suspicions;
      }
    }
    if (suspects_victim) ++suspecting;
  }
  outcome.coverage = observers ? double(suspecting) / double(observers) : 0.0;
  // Latency model: counter freshness expires fail_timeout after the crash.
  outcome.detection_latency_s = config.fail_timeout.as_seconds();
  outcome.bytes_per_node_per_interval =
      double(after.bytes - before.bytes) / double(kNodes) / 8.0;
  return outcome;
}

struct SwimOutcome {
  double detection_latency_s = -1.0;
  double coverage = 0.0;
  double bytes_per_node_per_interval = 0.0;
  std::uint64_t false_declarations = 0;
};

SwimOutcome run_swim(double p, std::uint64_t seed) {
  NetworkConfig net_config;
  net_config.seed = seed;
  Network network(net_config, std::make_unique<BernoulliLoss>(p));
  Rng placement(seed);
  network.add_nodes(uniform_rect(kNodes, kWidth, kHeight, placement));

  SwimConfig config;
  config.period = SimTime::seconds(2);  // same cadence as the FDS epochs
  SwimService swim(network, config);
  swim.run_periods(6, SimTime::zero());

  const NodeId victim{std::uint32_t(kNodes / 2)};
  const auto before = traffic_totals(network);
  const SimTime crash_time = network.simulator().now();
  network.crash(victim);

  SwimOutcome outcome;
  for (int period = 0; period < 15; ++period) {
    swim.run_periods(1, network.simulator().now());
    if (outcome.detection_latency_s < 0.0 &&
        swim.declaration_coverage(victim) > 0.0) {
      outcome.detection_latency_s =
          (network.simulator().now() - crash_time).as_seconds();
    }
  }
  const auto after = traffic_totals(network);
  outcome.coverage = swim.declaration_coverage(victim);
  outcome.bytes_per_node_per_interval =
      double(after.bytes - before.bytes) / double(kNodes) / 15.0;
  for (SwimAgent* agent : swim.agents()) {
    outcome.false_declarations += agent->false_declarations();
  }
  return outcome;
}

void BM_CfdsEpoch400(benchmark::State& state) {
  const auto config = scenario_config(kWidth, kHeight, kNodes, 0.1, 7);
  Scenario scenario(config);
  scenario.setup();
  for (auto _ : state) {
    scenario.run_epochs(1);
  }
}

void BM_GossipRound400(benchmark::State& state) {
  NetworkConfig net_config;
  net_config.seed = 7;
  Network network(net_config, std::make_unique<BernoulliLoss>(0.1));
  Rng placement(7);
  network.add_nodes(uniform_rect(kNodes, kWidth, kHeight, placement));
  GossipService gossip(network, GossipConfig{});
  std::uint64_t round = 0;
  for (auto _ : state) {
    gossip.run_rounds(1, network.simulator().now() + SimTime::millis(1));
    ++round;
  }
}

}  // namespace

void baselines_row() {
  banner("Baseline comparison",
         "cluster FDS vs gossip FD vs SWIM (400 nodes, same field)");
  std::printf("\n%-8s %-10s %12s %10s %14s %10s\n", "p", "detector",
              "latency(s)", "coverage", "B/node/intvl", "false+");
  const std::uint64_t seed = options().seed_or(91);
  for (double p : {0.0, 0.1, 0.3}) {
    const CfdsOutcome cfds = run_cfds(p, seed);
    std::printf("%-8.2f %-10s %12.2f %10.3f %14.1f %10zu\n", p, "CFDS",
                cfds.detection_latency_s, cfds.coverage,
                cfds.bytes_per_node_per_interval, cfds.false_detections);
    const GossipOutcome gossip = run_gossip(p, seed);
    std::printf("%-8.2f %-10s %12.2f %10.3f %14.1f %10zu\n", p, "gossip",
                gossip.detection_latency_s, gossip.coverage,
                gossip.bytes_per_node_per_interval, gossip.false_suspicions);
    const SwimOutcome swim = run_swim(p, seed);
    std::printf("%-8.2f %-10s %12.2f %10.3f %14.1f %10llu\n", p, "SWIM",
                swim.detection_latency_s, swim.coverage,
                swim.bytes_per_node_per_interval,
                static_cast<unsigned long long>(swim.false_declarations));
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
  benchmark::RegisterBenchmark("BM_CfdsEpoch400", BM_CfdsEpoch400)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_GossipRound400", BM_GossipRound400)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace cfds::bench
