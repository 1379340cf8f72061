// Every evaluation artifact of DESIGN.md §2 as one row of one driver (kRows,
// in §2 order): Figures 5-7, the DCH-reachability study, the two §4.2
// ablations, the §4.3 inter-cluster study, the baseline comparison, and the
// seven further studies (scalability, system-level completeness,
// robustness, aggregation sharing, sleep management, mobility, detection
// latency).
//
// The figure and ablation rows are Sweeps: a table per population over the
// paper's p sweep whose columns are closed forms or Monte-Carlo arms on the
// parallel runner, then full protocol-stack spot checks. Per-shard seeding
// makes the estimates and the --out JSONL identical at any thread count. The
// other rows run their own worlds (figures_*.cpp); docs/RUNNER.md lists the
// flags each row honours.
//
//   bench_figures [row] [runner flags] [--benchmark_* flags]
//
// Without a row name it runs every row. Each row registers its timings as
// BM_Figure/<row>/<timing>, and only when it is selected.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "analysis/figures.h"
#include "bench/bench_util.h"
#include "bench/figures_rows.h"
#include "net/mobility.h"
#include "runner/executor.h"

namespace {

using namespace cfds;
using runner::EstimatorKind;

using Curve = double (*)(double p, int n);

const std::vector<int> kPopulations = {50, 75, 100};

/// One column of a sweep table: `curve` itself, or — for an arm, which names
/// its JSONL `experiment` — the runner's estimate of `kind` under the given
/// protocol knobs, printed only where `curve` (the expected value) predicts
/// >= ~10 events in the trial budget. A spot-check arm fills the analytic
/// column with `curve` and labels its lines with `header` (if set).
struct Column {
  const char* header;
  Curve curve;
  const char* timing = nullptr;  ///< BM_Figure/<row>/<timing>; null = untimed
  const char* experiment = nullptr;
  EstimatorKind kind = EstimatorKind::kMcFalseDetection;
  RuleMode rule_mode = RuleMode::kFull;
  bool peer_forwarding = true;
};

struct SpotCheck {
  int n;
  double p;
  long trials;
};

/// A table per population over the paper's p sweep, an optional reading,
/// then every full-stack arm at every spot check.
struct Sweep {
  const char* title;
  const char* measure;
  std::vector<int> populations;
  long default_trials;
  std::uint64_t mc_seed;
  std::uint64_t stack_seed;
  bool sampleable_grid_only;  ///< run the MC arms only where they print
  std::vector<Column> columns;
  void (*reading)();
  std::vector<Column> stack_arms;
  std::vector<SpotCheck> spot_checks;
};

double loss_p(double p, int /*n*/) { return p; }
double loss_p_squared(double p, int /*n*/) { return p * p; }
double forwarding_gain(double p, int n) {
  return p / analysis::incompleteness_upper_bound(p, n);
}

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

void redundancy_reading() {
  std::printf("\nReading: each redundancy layer buys orders of magnitude —"
              " p -> p^2 -> p^2*(1-q(1-p)^2)^(N-2).\n");
  std::printf("Improvement factors at p = 0.30, N = 75:\n");
  const double p = 0.3;
  std::printf("  time redundancy:     %8.1fx\n", p / (p * p));
  std::printf("  spatial redundancy:  %8.1e x\n",
              (p * p) / analysis::false_detection_upper_bound(p, 75));
}

const Sweep kFig5 = {
    "Figure 5", "P^(False detection) vs p  (N = 50, 75, 100)",
    kPopulations, 400000, 0xF15, 0xF5, false,
    {{"analytic", &analysis::false_detection_upper_bound, "closed_form"},
     {"paper-sum", &analysis::false_detection_upper_bound_sum, "paper_sum"},
     {"semantic MC", &analysis::false_detection_upper_bound, "mc_shard",
      "fig5_false_detection", EstimatorKind::kMcFalseDetection}},
    nullptr,
    {{nullptr, &analysis::false_detection_upper_bound, "stack_shard",
      "fig5_stack_spot_check", EstimatorKind::kStackFalseDetection}},
    {{20, 0.5, 12000}, {20, 0.4, 12000}, {50, 0.5, 6000}}};

// The measure plunges to ~1e-120 over the sweep, far beyond any sampling
// reach (trials are ~2 draws on average, hence the larger budget).
const Sweep kFig6 = {
    "Figure 6", "P(False detection on CH) vs p  (N = 50, 75, 100)",
    kPopulations, 40000000, 0xF16, 0xF6, true,
    {{"analytic", &analysis::false_detection_on_ch, "closed_form"},
     {"paper-sum", &analysis::false_detection_on_ch_sum, "paper_sum"},
     {"semantic MC", &analysis::false_detection_on_ch, "mc_shard",
      "fig6_false_detection_on_ch", EstimatorKind::kMcFalseDetectionOnCh}},
    &fig6_reading,
    {{nullptr, &analysis::false_detection_on_ch, "stack_shard",
      "fig6_stack_spot_check", EstimatorKind::kStackFalseDetectionOnCh}},
    {{12, 0.5, 40000}}};

// The full stack sits slightly BELOW the closed form at high p: peer
// forwarding is progressive (a requester rescued early can answer later
// requests), a channel the paper's worst-case expression does not credit.
const Sweep kFig7 = {
    "Figure 7", "P^(Incompleteness) vs p  (N = 50, 75, 100)",
    kPopulations, 400000, 0xF17, 0xF7, false,
    {{"analytic", &analysis::incompleteness_upper_bound, "closed_form"},
     {"paper-sum", &analysis::incompleteness_upper_bound_sum, "paper_sum"},
     {"semantic MC", &analysis::incompleteness_upper_bound, "mc_shard",
      "fig7_incompleteness", EstimatorKind::kMcIncompleteness}},
    &fig7_reading,
    {{nullptr, &analysis::incompleteness_upper_bound, "stack_shard",
      "fig7_stack_spot_check", EstimatorKind::kStackIncompleteness}},
    {{20, 0.5, 12000}, {20, 0.4, 12000}, {50, 0.5, 6000}}};

// Section 4.2 claims the rule "simultaneously exploits time, spatial, and
// message redundancies". Each arm drops layers of evidence:
//   heartbeat-only  suspect on one missed heartbeat         ->  P = p
//   + time red.     heartbeat AND the suspect's own digest  ->  P = p^2
//   + spatial red.  ... AND no witness digest (full rule)   ->  Figure 5
const Sweep kRedundancy = {
    "Ablation", "false detection vs evidence policy (N = 75)", {75}, 300000,
    0xAB1, 0, false,
    {{"hb-only MC", &loss_p, "heartbeat_only_shard",
      "ablation_heartbeat_only", EstimatorKind::kMcFalseDetection,
      RuleMode::kHeartbeatOnly},
     {"ref p", &loss_p},
     {"no-spatial MC", &loss_p_squared, "no_spatial_shard",
      "ablation_no_spatial", EstimatorKind::kMcFalseDetection,
      RuleMode::kNoSpatial},
     {"ref p^2", &loss_p_squared},
     {"full MC", &analysis::false_detection_upper_bound, "full_rule_shard",
      "ablation_full_rule", EstimatorKind::kMcFalseDetection},
     {"ref full", &analysis::false_detection_upper_bound}},
    &redundancy_reading,
    {},
    {}};

// Section 4.2's completeness enhancement: without peer forwarding a member
// misses the health-status update with the raw loss probability p; with it
// the miss probability collapses to p * (1 - q(1-p)^3)^(N-2).
const Sweep kPeerForwarding = {
    "Ablation", "incompleteness with/without peer forwarding", {50, 100},
    300000, 0xAB2, 0xAB3, false,
    {{"without MC", &loss_p, "without_shard", "ablation_no_peer_forwarding",
      EstimatorKind::kMcIncompleteness, RuleMode::kFull, false},
     {"ref p", &loss_p},
     {"with MC", &analysis::incompleteness_upper_bound, "with_shard",
      "ablation_peer_forwarding", EstimatorKind::kMcIncompleteness},
     {"ref closed", &analysis::incompleteness_upper_bound},
     {"gain", &forwarding_gain}},
    nullptr,
    {{"forwarding ON", &analysis::incompleteness_upper_bound, nullptr,
      "ablation_peer_forwarding_stack", EstimatorKind::kStackIncompleteness},
     {"forwarding OFF", &loss_p, nullptr, "ablation_no_peer_forwarding_stack",
      EstimatorKind::kStackIncompleteness, RuleMode::kFull, false}},
    {{20, 0.5, 8000}}};

/// The arm's spec (conditioning from for_kind); the caller sets the grid,
/// trials and seed.
runner::ExperimentSpec spec_for(const Column& arm) {
  auto spec = runner::ExperimentSpec::for_kind(arm.kind);
  spec.name = arm.experiment;
  spec.rule_mode = arm.rule_mode;
  spec.peer_forwarding = arm.peer_forwarding;
  return spec;
}

void print_sweep(const Sweep& sweep, runner::ResultSink* sink) {
  const long trials = bench::options().trials_or(sweep.default_trials);
  bench::banner(sweep.title, sweep.measure);

  // Only print an MC estimate when the expected event count is >= ~10.
  const auto sampleable = [&](const Column& arm, int n, double p) {
    return arm.curve(p, n) * double(trials) >= 10.0;
  };
  const auto in_grid = [&](const Column& arm, int n, double p) {
    return !sweep.sampleable_grid_only || sampleable(arm, n, p);
  };
  // One experiment per MC column, in column order.
  std::vector<std::vector<runner::PointResult>> estimates;
  for (const Column& column : sweep.columns) {
    estimates.emplace_back();
    if (column.experiment == nullptr) continue;
    auto spec = spec_for(column);
    spec.trials = trials;
    spec.seed = bench::options().seed_or(sweep.mc_seed);
    for (int n : sweep.populations) {
      for (int i = 0; i < analysis::sweep_points(); ++i) {
        const double p = analysis::sweep_p(i);
        if (in_grid(column, n, p)) spec.grid.push_back(runner::GridPoint{n, p});
      }
    }
    estimates.back() = runner::run_experiment(spec, bench::pool(), sink);
  }

  std::vector<std::string> headers;
  for (const Column& column : sweep.columns) headers.push_back(column.header);
  std::vector<std::size_t> next(sweep.columns.size(), 0);
  for (int n : sweep.populations) {
    std::printf("\n-- N = %d  (semantic MC: %ld trials/point) --\n", n, trials);
    bench::table_header(headers);
    for (int i = 0; i < analysis::sweep_points(); ++i) {
      const double p = analysis::sweep_p(i);
      std::vector<std::string> cells;
      for (std::size_t c = 0; c < sweep.columns.size(); ++c) {
        const Column& column = sweep.columns[c];
        if (column.experiment == nullptr) {
          cells.push_back(bench::sci_cell(column.curve(p, n)));
          continue;
        }
        std::string text = "below floor";
        if (in_grid(column, n, p)) {
          const ProportionEstimator& mc = estimates[c][next[c]++].estimator;
          if (sampleable(column, n, p)) {
            text = bench::mc_cell(mc.estimate(), mc.ci99());
          }
        }
        cells.push_back(text);
      }
      bench::table_row(p, cells);
    }
  }

  if (sweep.reading != nullptr) sweep.reading();
  if (sweep.stack_arms.empty()) return;

  std::printf(
      "\n-- full protocol stack spot checks (event-driven, real frames) --\n");
  std::printf("%-18s  %14s  %20s\n", "point", "analytic", "protocol MC");
  for (const Column& arm : sweep.stack_arms) {
    // One experiment per point: each point's shard seeds start at point 0.
    for (const SpotCheck& check : sweep.spot_checks) {
      auto spec = spec_for(arm);
      spec.grid = {runner::GridPoint{check.n, check.p}};
      spec.trials = check.trials;
      spec.seed = bench::options().seed_or(sweep.stack_seed);
      const auto estimate =
          runner::run_experiment(spec, bench::pool(), sink).front().estimator;
      char point[32];
      std::snprintf(point, sizeof point, "N=%-3d p=%.2f", check.n, check.p);
      std::printf(
          "%-18s  %14.4e  %s", point, arm.curve(check.p, check.n),
          bench::right(bench::mc_cell(estimate.estimate(), estimate.ci99()), 20)
              .c_str());
      if (arm.header != nullptr) std::printf("  %s", arm.header);
      std::printf("\n");
    }
  }
}

// --- timings ---------------------------------------------------------------

constexpr double kTimedP = 0.3;

void BM_Formula(benchmark::State& state, Curve formula) {
  const int n = int(state.range(0));
  double sink = 0.0;
  for (auto _ : state) sink += formula(kTimedP, n);
  benchmark::DoNotOptimize(sink);
}

void BM_Shard(benchmark::State& state, const runner::ExperimentSpec& spec,
              long trials) {
  const runner::GridPoint point{int(state.range(0)), kTimedP};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runner::run_shard(spec, point, trials, ++seed).trials());
  }
  state.SetItemsProcessed(state.iterations() * trials);
}

/// Times each column that names a timing: a closed form per evaluation, an
/// MC arm per 1000-trial shard, a stack arm per one-trial shard.
void register_timings(const char* row, const Sweep& sweep) {
  const auto timed = [row](const Column& column, long trials) {
    if (column.timing == nullptr) return;
    if (column.experiment == nullptr) {
      bench::register_timing(row, column.timing, BM_Formula, column.curve)
          ->Arg(50)->Arg(100);
    } else {
      bench::register_timing(row, column.timing, BM_Shard, spec_for(column),
                             trials)
          ->Arg(50)->Arg(100);
    }
  };
  for (const Column& column : sweep.columns) timed(column, 1000);
  for (const Column& arm : sweep.stack_arms) timed(arm, 1);
}

/// One row: a Sweep, or a row that runs its own world (figures_rows.h).
struct Row {
  const char* name;
  const Sweep* sweep;
  void (*run)();
};

const Row kRows[] = {
    {"fig5", &kFig5, nullptr},
    {"fig6", &kFig6, nullptr},
    {"fig7", &kFig7, nullptr},
    {"dch", nullptr, &bench::dch_row},
    {"ablation_redundancy", &kRedundancy, nullptr},
    {"ablation_peer_forwarding", &kPeerForwarding, nullptr},
    {"intercluster", nullptr, &bench::intercluster_row},
    {"baselines", nullptr, &bench::baselines_row},
    {"scalability", nullptr, &bench::scalability_row},
    {"system_completeness", nullptr, &bench::system_completeness_row},
    {"robustness", nullptr, &bench::robustness_row},
    {"aggregation_sharing", nullptr, &bench::aggregation_sharing_row},
    {"sleep_management", nullptr, &bench::sleep_management_row},
    {"mobility", nullptr, &bench::mobility_row},
    {"detection_latency", nullptr, &bench::detection_latency_row},
};

void print_rows(std::FILE* out) {
  std::fprintf(out, "rows (none given: all, in this order):");
  for (const Row& row : kRows) std::fprintf(out, " %s", row.name);
  std::fprintf(out, "\n");
}

/// --help: the rows, then google-benchmark's flags.
void print_help() {
  print_rows(stdout);
  benchmark::PrintDefaultHelp();
}

void BM_Epoch(benchmark::State& state, const ScenarioConfig& config,
              bool mobile) {
  Scenario scenario(config);
  scenario.setup();
  std::optional<RandomWaypointMobility> mobility;
  if (mobile) {
    WaypointConfig waypoints;
    waypoints.width = config.width;
    waypoints.height = config.height;
    mobility.emplace(scenario.network(), waypoints, Rng(1));
    mobility->run(SimTime::zero(), SimTime::seconds(3600));
  }
  for (auto _ : state) scenario.run_epochs(1);
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(config.node_count));
}

}  // namespace

void cfds::bench::register_epoch_timing(const char* row,
                                        const std::string& timing,
                                        const ScenarioConfig& config,
                                        bool mobile) {
  register_timing(row, timing, BM_Epoch, config, mobile)
      ->Unit(benchmark::kMillisecond);
}

int main(int argc, char** argv) {
  cfds::bench::parse_common_args(argc, argv, {}, &print_help);
  benchmark::Initialize(&argc, argv);
  std::vector<const Row*> selected;
  for (const Row& row : kRows) {
    if (argc == 1 || (argc == 2 && std::strcmp(argv[1], row.name) == 0)) {
      selected.push_back(&row);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "usage: %s [row] [runner flags]\n", argv[0]);
    print_rows(stderr);
    return 2;
  }
  const auto sink = cfds::bench::make_sink();
  for (const Row* row : selected) {
    if (row->sweep == nullptr) {
      row->run();
      continue;
    }
    print_sweep(*row->sweep, sink.get());
    register_timings(row->name, *row->sweep);
  }
  std::printf("\n-- timings --\n");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
