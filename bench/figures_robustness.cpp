// Robustness of the FDS beyond the paper's model assumptions.
//
// Section 5 assumes iid per-receiver Bernoulli loss and Section 2.2 assumes
// near-accurate clocks. This row stress-tests both:
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
#include "bench/figures_rows.h"
#include "sim/scenario.h"
#include "sim/single_cluster.h"

namespace cfds::bench {
namespace {

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

/// One table of the loss-model study: a full-stack measure, its iid
/// closed form, and the note printed under the table (null: none).
struct Measure {
  const char* header_suffix;
  double (*analytic)(double p, int n);
  ProportionEstimator (SingleClusterExperiment::*run)(int trials);
  std::uint64_t seed;
  const char* note;
};

const Measure kMeasures[] = {
    {"", &analysis::false_detection_upper_bound,
     &SingleClusterExperiment::run_false_detection, 0xA10B,
     "(bursty links raise false detections above the iid analysis:"
     " the heartbeat and digest of one node share a link, so their"
     " losses correlate)\n"},
    {"   (incompleteness)", &analysis::incompleteness_upper_bound,
     &SingleClusterExperiment::run_incompleteness, 0xB0B, nullptr},
};

void print_loss_model_study() {
  banner("Robustness", "loss-model sensitivity (full stack, N = 20)");
  const int trials = int(options().trials_or(8000));
  for (const Measure& measure : kMeasures) {
    std::printf("\n%-6s %14s %14s %14s %14s%s\n", "p", "analytic(iid)",
                "Bernoulli MC", "GilbertE MC", "Distance MC",
                measure.header_suffix);
    for (double p : {0.3, 0.4, 0.5}) {
      std::printf("%-6.2f %14s", p, sci_cell(measure.analytic(p, 20)).c_str());
      for (int model = 0; model < 3; ++model) {
        SingleClusterConfig config;
        config.n = 20;
        config.p = p;
        config.seed = measure.seed + std::uint64_t(model);
        config.num_deputies = 0;
        if (model == 1) {
          config.loss_factory = [p] {
            return std::make_unique<GilbertElliottLoss>(ge_matched(p));
          };
        } else if (model == 2) {
          // Floor p/2 and ceiling 3p/2 average p over the disk (taking
          // d/R ~ sqrt(U): E[floor + (c-floor)(d/R)^2] = floor +
          // (c-floor)/2; pairwise node distances are close enough for a
          // sensitivity study).
          config.loss_factory = [p] {
            return std::make_unique<DistanceLoss>(p / 2.0, 1.5 * p, 100.0);
          };
        }
        SingleClusterExperiment experiment(config);
        const auto estimate = (experiment.*measure.run)(trials);
        std::printf(" %14s",
                    mc_cell(estimate.estimate(), estimate.ci99()).c_str());
      }
      std::printf("\n");
    }
    if (measure.note != nullptr) std::printf("%s", measure.note);
  }
}

ScenarioConfig skewed_world(std::int64_t skew_ms) {
  auto config = scenario_config(550.0, 400.0, 300, 0.1, 83);
  config.fds.max_clock_skew = SimTime::millis(skew_ms);
  return config;
}

void print_skew_study() {
  std::printf("\n-- clock-skew sensitivity (300 nodes, p = 0.1, 6 epochs,"
              " Thop = 100 ms) --\n");
  std::printf("%-14s %16s %14s\n", "max skew (ms)", "false detections",
              "crash caught");
  for (std::int64_t skew_ms : {0, 10, 25, 50, 100, 200, 400}) {
    Scenario scenario(skewed_world(skew_ms));
    scenario.setup();
    scenario.run_epochs(3);
    const NodeId victim = scenario.alive_ordinary_members().front();
    const SimTime crash_time = scenario.network().simulator().now();
    scenario.network().crash(victim);
    scenario.run_epochs(3);
    std::printf(
        "%-14lld %16zu %14s\n", static_cast<long long>(skew_ms),
        scenario.metrics().false_detections(),
        scenario.metrics().first_detection_since(victim, crash_time) ? "yes"
                                                                     : "NO");
  }
  std::printf("(the protocol shrugs off skew well below Thop; once offsets"
              " approach the round length, heartbeats land in the wrong"
              " round and accuracy collapses — quantifying Section 2.2's"
              " clock assumption)\n");
}

}  // namespace

void robustness_row() {
  print_loss_model_study();
  print_skew_study();
  for (std::int64_t skew_ms : {0, 50}) {
    register_epoch_timing("robustness",
                          "skewed_epoch/" + std::to_string(skew_ms),
                          skewed_world(skew_ms));
  }
}

}  // namespace cfds::bench
