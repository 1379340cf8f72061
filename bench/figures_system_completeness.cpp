// System-level completeness — the measure the paper leaves open
// ("global-level measures will require the assumptions of an inter-cluster
// routing algorithm and a network topology", Section 5). With both pieces
// built, this bench closes the loop:
//
//   model     per-link delivery from the Section 4.3 machinery's closed
//             form, composed over the real cluster graph by Monte-Carlo
//             network reliability;
//   measured  the full protocol stack on the same 500-node field — the
//             fraction of clusterheads whose failure log contains the
//             casualty after one execution plus propagation time.
//
// Also quantifies, at the system level, what each layer of Section 4.3's
// redundancy (CH retransmissions, GW retries, BGW assistance) buys.

#include <benchmark/benchmark.h>

#include "analysis/backbone.h"
#include "bench/bench_util.h"
#include "bench/figures_rows.h"
#include "sim/scenario.h"

namespace cfds::bench {
namespace {

/// Builds the cluster-level backbone of a scenario's directory clustering.
analysis::BackboneGraph backbone_of(Scenario& scenario) {
  analysis::BackboneGraph graph;
  std::vector<ClusterId> index;
  for (MembershipView* view : scenario.views()) {
    if (view->is_clusterhead()) index.push_back(view->cluster()->id);
  }
  graph.cluster_count = index.size();
  auto position_of = [&](ClusterId id) {
    for (std::size_t i = 0; i < index.size(); ++i) {
      if (index[i] == id) return i;
    }
    return std::size_t(index.size());
  };
  for (MembershipView* view : scenario.views()) {
    if (!view->is_clusterhead()) continue;
    const std::size_t a = position_of(view->cluster()->id);
    for (const GatewayLink& link : view->cluster()->links) {
      const std::size_t b = position_of(link.neighbor_cluster);
      if (b < graph.cluster_count && a < b) graph.links.emplace_back(a, b);
    }
  }
  return graph;
}

double measured_ch_coverage(double p, std::uint64_t seed) {
  ScenarioConfig config = paper_density(500);
  config.loss_p = p;
  config.seed = seed;
  Scenario scenario(config);
  scenario.setup();
  scenario.run_epochs(1);
  const NodeId victim = scenario.alive_ordinary_members().front();
  scenario.network().crash(victim);
  scenario.run_epochs(2);
  std::size_t chs = 0, knowing = 0;
  for (FdsAgent* agent : scenario.fds().agents()) {
    if (!agent->view().is_clusterhead()) continue;
    if (!scenario.network().node(agent->id()).alive()) continue;
    ++chs;
    if (agent->log().knows(victim)) ++knowing;
  }
  return chs ? double(knowing) / double(chs) : 0.0;
}

void BM_BackboneReliability(benchmark::State& state) {
  analysis::BackboneGraph graph;
  graph.cluster_count = 40;
  for (std::size_t i = 0; i + 1 < 40; ++i) {
    graph.links.emplace_back(i, i + 1);
    if (i + 5 < 40) graph.links.emplace_back(i, i + 5);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::backbone_completeness(graph, 0, 0.95, 100, rng)
            .p_all_reached);
  }
}

}  // namespace

void system_completeness_row() {
  banner("System-level completeness",
         "model vs full stack over the real backbone (500 nodes)");

  // One representative topology for the model side.
  ScenarioConfig config = paper_density(500);
  config.loss_p = 0.0;
  config.seed = 13;
  Scenario scenario(config);
  scenario.setup();
  const auto graph = backbone_of(scenario);
  std::printf("\nbackbone: %zu clusters, %zu links\n", graph.cluster_count,
              graph.links.size());

  Rng rng(0x5E5);
  std::printf("\n%-6s %12s %14s %14s %14s\n", "p", "link model",
              "P(all) model", "E[cov] model", "measured cov");
  for (double p : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    const double link = analysis::link_delivery_probability(
        p, 2, kMaxChRetransmits, kMaxGwRetries);
    const auto model =
        analysis::backbone_completeness(graph, 0, link, 4000, rng);
    std::printf("%-6.2f %12.4f %14.4f %14.4f %14.4f\n", p, link,
                model.p_all_reached, model.expected_coverage,
                measured_ch_coverage(p, 13));
  }
  std::printf("(model assumes 2 BGWs per link; the real field varies —"
              " shapes should agree, exact values need not)\n");

  std::printf("\n-- what Section 4.3's redundancy buys at the system level"
              " (p = 0.4) --\n");
  std::printf("%-34s %12s %14s\n", "machinery", "link model", "P(all) model");
  struct Row {
    const char* name;
    std::size_t backups;
    int ch_retx;
    int gw_retries;
  };
  for (const Row& row :
       {Row{"bare forward (no redundancy)", 0, 0, 0},
        Row{"+ CH retransmissions", 0, 2, 0},
        Row{"+ GW retries", 0, 2, 2},
        Row{"+ 2 ranked BGWs (full 4.3)", 2, 2, 2}}) {
    const double link = analysis::link_delivery_probability(
        0.4, row.backups, row.ch_retx, row.gw_retries);
    const auto model =
        analysis::backbone_completeness(graph, 0, link, 4000, rng);
    std::printf("%-34s %12.4f %14.4f\n", row.name, link,
                model.p_all_reached);
  }
  register_timing("system_completeness", "backbone_reliability",
                  BM_BackboneReliability);
}

}  // namespace cfds::bench
