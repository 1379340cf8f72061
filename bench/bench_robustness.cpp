// Robustness of the FDS beyond the paper's model assumptions.
//
// Section 5 assumes iid per-receiver Bernoulli loss and Section 2.2 assumes
// near-accurate clocks. This bench stress-tests both:
//
//   1. Loss-model study — the same full-stack false-detection and
//      incompleteness experiments under (a) iid Bernoulli, (b) bursty
//      Gilbert-Elliott links with a matched stationary loss rate, and
//      (c) distance-dependent loss with a matched disk-average rate.
//      Burstiness *correlates* the evidence channels that share a link
//      (v's heartbeat and digest both traverse v->CH), which weakens the
//      time redundancy the rule relies on.
//
//   2. Clock-skew study — false detections per execution as per-node round
//      offsets approach the round length Thop.

#include <benchmark/benchmark.h>

#include <cmath>

#include "analysis/figures.h"
#include "bench/bench_util.h"
#include "sim/scenario.h"
#include "sim/single_cluster.h"

namespace {

using namespace cfds;

/// Gilbert-Elliott parameters with the given stationary loss.
GilbertElliottLoss::Params ge_matched(double target_loss) {
  GilbertElliottLoss::Params params;
  params.p_good = target_loss / 3.0;
  params.p_bad = 0.9;
  params.p_bg = 0.25;
  // stationary = f*p_bad + (1-f)*p_good with f = p_gb/(p_gb+p_bg)
  const double f =
      (target_loss - params.p_good) / (params.p_bad - params.p_good);
  params.p_gb = f * params.p_bg / (1.0 - f);
  return params;
}

/// Distance-loss parameters whose disk-average rate approximates the
/// target (taking d/R ~ sqrt(U): E[floor + (c-floor)(d/R)^2] =
/// floor + (c-floor)/2; pairwise node distances are close enough for a
/// sensitivity study).
void distance_matched(double target_loss, double& floor, double& ceiling) {
  floor = target_loss / 2.0;
  ceiling = 1.5 * target_loss;
}

void print_loss_model_study() {
  bench::banner("Robustness", "loss-model sensitivity (full stack, N = 20)");
  const int trials = int(bench::options().trials_or(8000));
  std::printf("\n%-6s %14s %14s %14s %14s\n", "p", "analytic(iid)",
              "Bernoulli MC", "GilbertE MC", "Distance MC");
  for (double p : {0.3, 0.4, 0.5}) {
    std::printf("%-6.2f %14s", p,
                bench::sci_cell(analysis::false_detection_upper_bound(p, 20))
                    .c_str());
    for (int model = 0; model < 3; ++model) {
      SingleClusterConfig config;
      config.n = 20;
      config.p = p;
      config.seed = 0xA10B + std::uint64_t(model);
      config.num_deputies = 0;
      if (model == 1) {
        config.loss_factory = [p] {
          return std::make_unique<GilbertElliottLoss>(ge_matched(p));
        };
      } else if (model == 2) {
        config.loss_factory = [p] {
          double floor = 0.0, ceiling = 0.0;
          distance_matched(p, floor, ceiling);
          return std::make_unique<DistanceLoss>(floor, ceiling, 100.0);
        };
      }
      SingleClusterExperiment experiment(config);
      const auto estimate = experiment.run_false_detection(trials);
      std::printf(" %14s",
                  bench::mc_cell(estimate.estimate(), estimate.ci99()).c_str());
    }
    std::printf("\n");
  }
  std::printf("(bursty links raise false detections above the iid analysis:"
              " the heartbeat and digest of one node share a link, so their"
              " losses correlate)\n");

  std::printf("\n%-6s %14s %14s %14s %14s   (incompleteness)\n", "p",
              "analytic(iid)", "Bernoulli MC", "GilbertE MC", "Distance MC");
  for (double p : {0.3, 0.4, 0.5}) {
    std::printf("%-6.2f %14s", p,
                bench::sci_cell(analysis::incompleteness_upper_bound(p, 20))
                    .c_str());
    for (int model = 0; model < 3; ++model) {
      SingleClusterConfig config;
      config.n = 20;
      config.p = p;
      config.seed = 0xB0B + std::uint64_t(model);
      config.num_deputies = 0;
      if (model == 1) {
        config.loss_factory = [p] {
          return std::make_unique<GilbertElliottLoss>(ge_matched(p));
        };
      } else if (model == 2) {
        config.loss_factory = [p] {
          double floor = 0.0, ceiling = 0.0;
          distance_matched(p, floor, ceiling);
          return std::make_unique<DistanceLoss>(floor, ceiling, 100.0);
        };
      }
      SingleClusterExperiment experiment(config);
      const auto estimate = experiment.run_incompleteness(trials);
      std::printf(" %14s",
                  bench::mc_cell(estimate.estimate(), estimate.ci99()).c_str());
    }
    std::printf("\n");
  }
}

void print_skew_study() {
  std::printf("\n-- clock-skew sensitivity (300 nodes, p = 0.1, 6 epochs,"
              " Thop = 100 ms) --\n");
  std::printf("%-14s %16s %14s\n", "max skew (ms)", "false detections",
              "crash caught");
  for (std::int64_t skew_ms : {0, 10, 25, 50, 100, 200, 400}) {
    auto config = bench::scenario_config(550.0, 400.0, 300, 0.1, 83);
    config.fds.max_clock_skew = SimTime::millis(skew_ms);
    Scenario scenario(config);
    scenario.setup();
    scenario.run_epochs(3);
    NodeId victim = NodeId::invalid();
    for (MembershipView* view : scenario.views()) {
      if (view->role() == Role::kOrdinaryMember) {
        victim = view->self();
        break;
      }
    }
    scenario.network().crash(victim);
    scenario.run_epochs(3);
    std::printf("%-14lld %16zu %14s\n", static_cast<long long>(skew_ms),
                scenario.metrics().false_detections(),
                scenario.metrics().first_detection(victim) ? "yes" : "NO");
  }
  std::printf("(the protocol shrugs off skew well below Thop; once offsets"
              " approach the round length, heartbeats land in the wrong"
              " round and accuracy collapses — quantifying Section 2.2's"
              " clock assumption)\n");
}

void BM_SkewedEpoch(benchmark::State& state) {
  auto config = bench::scenario_config(550.0, 400.0, 300, 0.1, 83);
  config.fds.max_clock_skew = SimTime::millis(state.range(0));
  Scenario scenario(config);
  scenario.setup();
  for (auto _ : state) {
    scenario.run_epochs(1);
  }
}
BENCHMARK(BM_SkewedEpoch)->Arg(0)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  cfds::bench::parse_common_args(argc, argv);
  print_loss_model_study();
  print_skew_study();
  return cfds::bench::run_timings(argc, argv);
}
