// Figures 5, 6 and 7: the paper's per-cluster measures vs message-loss
// probability p, for cluster populations N = 50, 75, 100.
//
// Each figure is one row of kFigures, regenerated four ways:
//   analytic    — the closed form (analysis/figures.h)
//   paper-sum   — the paper's literal double-sum expression (log space)
//   semantic MC — protocol-rule Monte-Carlo over sampled geometry/losses
//   protocol MC — full protocol-stack spot checks (event queue, real frames)
//                 at points where the probability is large enough to sample
//                 in reasonable time.
//
// Both Monte-Carlo passes run on the parallel experiment runner: each grid
// is sharded across --threads workers with counter-based per-shard seeding,
// so estimates (and the --out JSONL) are identical at any thread count.
//
//   bench_figures [fig5|fig6|fig7] [--trials T] [--threads W] [--seed S]
//                 [--out F] [--no-wall-time] [--no-calendar]
//                 [--benchmark_* flags]
//
// Without a figure name it prints, and writes to --out, all three in order.

#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/figures.h"
#include "bench/bench_util.h"
#include "runner/executor.h"

namespace {

using namespace cfds;

const std::vector<int> kPopulations = {50, 75, 100};

struct SpotCheck {
  int n;
  double p;
  long trials;
};

struct Figure {
  const char* name;  ///< command-line name; prefixes the stack spec name
  const char* title;
  const char* measure;
  const char* sweep_name;  ///< JSONL experiment name of the semantic sweep
  runner::EstimatorKind mc_kind;
  runner::EstimatorKind stack_kind;
  double (*closed_form)(double p, int n);
  double (*paper_sum)(double p, int n);
  long default_trials;
  std::uint64_t mc_seed;
  std::uint64_t stack_seed;
  /// Run the semantic sweep only where the estimate is printed.
  bool sampleable_grid_only;
  std::vector<SpotCheck> spot_checks;
  void (*reading)();  ///< optional commentary after the tables
};

void fig6_reading() {
  std::printf("\n-- paper's quantitative reading of the figure --\n");
  std::printf("  P(p=0.50, N=50)  = %.3e   (paper: 'still below 1e-6')\n",
              analysis::false_detection_on_ch(0.5, 50));
  std::printf(
      "  P(p=0.25, N=50)  = %.3e   (paper: 'extremely low below p=0.25')\n",
      analysis::false_detection_on_ch(0.25, 50));
  std::printf(
      "  DCH vs CH: P(FD on CH) < P^(FD) at every sweep point: %s\n",
      [] {
        for (int n : kPopulations) {
          for (int i = 0; i < analysis::sweep_points(); ++i) {
            const double p = analysis::sweep_p(i);
            if (analysis::false_detection_on_ch(p, n) >=
                analysis::false_detection_upper_bound(p, n)) {
              return "VIOLATED";
            }
          }
        }
        return "holds";
      }());
}

void fig7_reading() {
  std::printf("\n-- sensitivity observation (Section 5.2) --\n");
  for (int n : {50, 100}) {
    std::printf("  N=%-3d  P(0.50)/P(0.05) = %.3e\n", n,
                analysis::incompleteness_upper_bound(0.5, n) /
                    analysis::incompleteness_upper_bound(0.05, n));
  }
  std::printf("  (the ratio grows with N: larger clusters are more sensitive"
              " to p)\n");
}

const std::array<Figure, 3> kFigures = {{
    {"fig5", "Figure 5", "P^(False detection) vs p  (N = 50, 75, 100)",
     "fig5_false_detection", runner::EstimatorKind::kMcFalseDetection,
     runner::EstimatorKind::kStackFalseDetection,
     &analysis::false_detection_upper_bound,
     &analysis::false_detection_upper_bound_sum, 400000, 0xF15, 0xF5, false,
     {{20, 0.5, 12000}, {20, 0.4, 12000}, {50, 0.5, 6000}}, nullptr},
    // The measure plunges to ~1e-120 over the sweep, far beyond any sampling
    // reach (trials are ~2 draws on average, hence the larger budget).
    {"fig6", "Figure 6", "P(False detection on CH) vs p  (N = 50, 75, 100)",
     "fig6_false_detection_on_ch",
     runner::EstimatorKind::kMcFalseDetectionOnCh,
     runner::EstimatorKind::kStackFalseDetectionOnCh,
     &analysis::false_detection_on_ch, &analysis::false_detection_on_ch_sum,
     40000000, 0xF16, 0xF6, true, {{12, 0.5, 40000}}, &fig6_reading},
    // The full stack sits slightly BELOW the closed form at high p: peer
    // forwarding is progressive (a requester rescued early can answer later
    // requests), a channel the paper's worst-case expression does not credit.
    {"fig7", "Figure 7", "P^(Incompleteness) vs p  (N = 50, 75, 100)",
     "fig7_incompleteness", runner::EstimatorKind::kMcIncompleteness,
     runner::EstimatorKind::kStackIncompleteness,
     &analysis::incompleteness_upper_bound,
     &analysis::incompleteness_upper_bound_sum, 400000, 0xF17, 0xF7, false,
     {{20, 0.5, 12000}, {20, 0.4, 12000}, {50, 0.5, 6000}}, &fig7_reading},
}};

void print_figure(const Figure& fig, runner::ResultSink* sink) {
  const long trials = bench::options().trials_or(fig.default_trials);
  bench::banner(fig.title, fig.measure);

  // Only print the MC estimate when the expected event count is >= ~10.
  const auto sampleable = [&](int n, double p) {
    return fig.closed_form(p, n) * double(trials) >= 10.0;
  };
  const auto in_grid = [&](int n, double p) {
    return !fig.sampleable_grid_only || sampleable(n, p);
  };
  auto spec = runner::ExperimentSpec::for_kind(fig.mc_kind);
  spec.name = fig.sweep_name;
  spec.trials = trials;
  spec.seed = bench::options().seed_or(fig.mc_seed);
  for (int n : kPopulations) {
    for (int i = 0; i < analysis::sweep_points(); ++i) {
      const double p = analysis::sweep_p(i);
      if (in_grid(n, p)) spec.grid.push_back(runner::GridPoint{n, p});
    }
  }
  const auto results = runner::run_experiment(spec, bench::pool(), sink);

  auto result = results.begin();
  for (int n : kPopulations) {
    std::printf("\n-- N = %d  (semantic MC: %ld trials/point) --\n", n, trials);
    bench::table_header({"analytic", "paper-sum", "semantic MC"});
    for (int i = 0; i < analysis::sweep_points(); ++i) {
      const double p = analysis::sweep_p(i);
      std::string mc_text = "<sampling floor";
      if (in_grid(n, p)) {
        const ProportionEstimator& mc = (result++)->estimator;
        if (sampleable(n, p)) {
          mc_text = bench::mc_cell(mc.estimate(), mc.ci99());
        }
      }
      bench::table_row(p, std::vector<std::string>{
                              bench::sci_cell(fig.closed_form(p, n)),
                              bench::sci_cell(fig.paper_sum(p, n)), mc_text});
    }
  }

  if (fig.reading != nullptr) fig.reading();

  std::printf(
      "\n-- full protocol stack spot checks (event-driven, real frames) --\n");
  std::printf("%-18s  %14s  %20s\n", "point", "analytic", "protocol MC");
  // One experiment per point: each point's shard seeds start at point 0.
  for (const SpotCheck& check : fig.spot_checks) {
    auto stack = runner::ExperimentSpec::for_kind(fig.stack_kind);
    stack.name = std::string(fig.name) + "_stack_spot_check";
    stack.grid = {runner::GridPoint{check.n, check.p}};
    stack.trials = check.trials;
    stack.seed = bench::options().seed_or(fig.stack_seed);
    const auto estimate =
        runner::run_experiment(stack, bench::pool(), sink).front().estimator;
    std::printf("N=%-3d p=%.2f       %14.4e  %20s\n", check.n, check.p,
                fig.closed_form(check.p, check.n),
                bench::mc_cell(estimate.estimate(), estimate.ci99()).c_str());
  }
}

// --- timings ---------------------------------------------------------------

constexpr double kTimedP = 0.3;

void BM_Formula(benchmark::State& state, double (*formula)(double, int)) {
  const int n = int(state.range(0));
  double sink = 0.0;
  for (auto _ : state) sink += formula(kTimedP, n);
  benchmark::DoNotOptimize(sink);
}

void BM_Shard(benchmark::State& state, runner::EstimatorKind kind,
              long trials) {
  const auto spec = runner::ExperimentSpec::for_kind(kind);
  const runner::GridPoint point{int(state.range(0)), kTimedP};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runner::run_shard(spec, point, trials, ++seed).trials());
  }
  state.SetItemsProcessed(state.iterations() * trials);
}

void register_timings(const Figure& fig) {
  const std::string prefix = std::string("BM_Figure/") + fig.name + "/";
  benchmark::RegisterBenchmark((prefix + "closed_form").c_str(), BM_Formula,
                               fig.closed_form)
      ->Arg(50)->Arg(100);
  benchmark::RegisterBenchmark((prefix + "paper_sum").c_str(), BM_Formula,
                               fig.paper_sum)
      ->Arg(50)->Arg(100);
  benchmark::RegisterBenchmark((prefix + "mc_shard").c_str(), BM_Shard,
                               fig.mc_kind, 1000L)
      ->Arg(50)->Arg(100);
  benchmark::RegisterBenchmark((prefix + "stack_shard").c_str(), BM_Shard,
                               fig.stack_kind, 1L)
      ->Arg(50)->Arg(100);
}

}  // namespace

int main(int argc, char** argv) {
  cfds::bench::parse_common_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  std::vector<const Figure*> selected;
  for (const Figure& fig : kFigures) {
    if (argc == 1 || (argc == 2 && std::strcmp(argv[1], fig.name) == 0)) {
      selected.push_back(&fig);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "usage: %s [fig5|fig6|fig7] [runner flags]\n",
                 argv[0]);
    return 2;
  }
  const auto sink = cfds::bench::make_sink();
  for (const Figure* fig : selected) print_figure(*fig, sink.get());
  for (const Figure* fig : selected) register_timings(*fig);
  std::printf("\n-- timings --\n");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
