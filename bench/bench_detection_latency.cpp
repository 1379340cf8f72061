// Detection latency distribution, plus the static-vs-adaptive Pareto study.
//
// The paper argues that for large redundant populations "completeness and
// accuracy of failure detection are more important than time to failure
// detection" (Section 2.1) — latency is bounded by construction: a crash is
// flagged at the next execution's fds.R-3, i.e. within phi + 2*Thop of the
// crash. This bench verifies that bound empirically and reports the
// distribution (crashes land uniformly inside the interval), plus the
// propagation delay until system-wide knowledge exceeds 95%.
//
// The second study sweeps the self-tuning accrual detector
// (FdsConfig::adaptive_enabled, docs/ADAPTIVE.md) against the static
// one-miss rule across three loss regimes — steady-low, steady-high, and
// bursty interference — and prints each variant's (false-positive rate,
// detection latency) point. The claim under test: on the bursty regime at
// least one accrual threshold Pareto-dominates the static rule (no worse
// latency, strictly fewer false positives), because the estimator absorbs
// the burst instead of flagging every silent member.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/statistics.h"
#include "sim/scenario.h"

namespace {

using namespace cfds;

void print_study() {
  bench::banner("Detection latency",
                "crash -> local detection -> 95% system-wide knowledge");
  std::printf("\n(300 nodes, phi = 2 s, Thop = 100 ms; 60 crashes per row at"
              " uniform offsets)\n");
  std::printf("%-6s %10s %10s %10s %12s %14s\n", "p", "p50 (s)", "p90 (s)",
              "max (s)", "bound (s)", "95pct-know(s)");
  for (double p : {0.0, 0.1, 0.3}) {
    Histogram latencies(0.0, 4.0, 80);
    RunningStats knowledge_delay;
    Rng offsets(0xDE1 + std::uint64_t(p * 100));

    const auto config = bench::scenario_config(550.0, 400.0, 300, p, 7);
    Scenario scenario(config);
    scenario.setup();
    scenario.run_epochs(1);

    int crashes = 0;
    while (crashes < 60) {
      std::vector<NodeId> candidates;
      for (MembershipView* view : scenario.views()) {
        if (view->role() == Role::kOrdinaryMember &&
            scenario.network().node(view->self()).alive()) {
          candidates.push_back(view->self());
        }
      }
      if (candidates.empty()) break;
      const NodeId victim = candidates[offsets.below(candidates.size())];
      // Crash at a uniform offset inside the current interval, after its
      // rounds have completed (the paper assumes nodes do not fail during
      // an FDS execution); detection then lands in the next execution.
      const SimTime now = scenario.network().simulator().now();
      const SimTime crash_at =
          now + SimTime::micros(std::int64_t(
                    offsets.uniform(0.3, 0.95) *
                    double(config.heartbeat_interval.as_micros())));
      scenario.schedule_crash(victim, crash_at);
      scenario.run_epochs(2);
      ++crashes;

      if (const auto first = scenario.metrics().first_detection(victim)) {
        latencies.add((first->when - crash_at).as_seconds());
      }
      // Propagation: additional epochs until >= 95% of nodes know.
      int extra = 0;
      while (knowledge_coverage(scenario.fds(), scenario.network(), victim) <
                 0.95 &&
             extra < 4) {
        scenario.run_epochs(1);
        ++extra;
      }
      const auto first = scenario.metrics().first_detection(victim);
      if (first) {
        knowledge_delay.add(
            (scenario.network().simulator().now() - crash_at).as_seconds());
      }
    }

    const double bound =
        config.heartbeat_interval.as_seconds() + 2 * 0.1;  // phi + 2*Thop
    std::printf("%-6.2f %10.2f %10.2f %10.2f %12.2f %14.2f\n", p,
                latencies.quantile(0.5), latencies.quantile(0.9),
                latencies.quantile(1.0), bound, knowledge_delay.mean());
  }
  std::printf("\nReading: local detection is bounded by phi + 2*Thop and the"
              " distribution is uniform-ish over the interval (crash offsets"
              " are uniform); system-wide knowledge follows within the"
              " propagation epochs.\n");
}

// --- Static-vs-adaptive Pareto study ---------------------------------------

struct LossRegime {
  const char* name;
  double base_loss;  ///< background per-frame loss
  bool bursty;       ///< channel-wide 70%-loss bursts between crashes
};

struct VariantPoint {
  const char* label;
  /// False detections per 1000 member-epochs.
  double fp_rate = 0.0;
  /// Mean crash -> first-detection latency (seconds); only detected crashes.
  double latency_s = 0.0;
  std::size_t detected = 0;
  std::size_t crashes = 0;
};

/// Runs one detector variant through one regime. Crashes always land in a
/// clean window (>= 10 epochs after a burst ends, enough for the loss
/// estimate to decay back to quiescent), per the paper's assumption that
/// nodes do not fail during an FDS execution — the regimes differ in what
/// the detector must NOT flag, not in what it must catch.
VariantPoint run_variant(const char* label, const LossRegime& regime,
                         bool adaptive, std::uint32_t threshold_milli) {
  auto config = bench::scenario_config(550.0, 400.0, 120, regime.base_loss, 7);
  // Falsely-dropped members must be able to resubscribe, or the first burst
  // would permanently shrink the rosters and deflate later FP counts.
  config.fds.recovery_enabled = true;
  config.fds.adaptive_enabled = adaptive;
  config.fds.accrual_threshold_milli = threshold_milli;
  Scenario scenario(config);
  scenario.setup();
  scenario.run_epochs(2);
  std::uint64_t epochs = 2;

  Rng offsets(0xDE1);
  RunningStats latency;
  VariantPoint point;
  point.label = label;
  for (int cycle = 0; cycle < 6; ++cycle) {
    if (regime.bursty) {
      scenario.network().channel().set_loss_override(0.7);
      scenario.run_epochs(2);
      scenario.network().channel().clear_loss_override();
      scenario.run_epochs(10);  // decay window: loss estimates settle
      epochs += 12;
    } else {
      scenario.run_epochs(2);
      epochs += 2;
    }
    std::vector<NodeId> candidates;
    for (MembershipView* view : scenario.views()) {
      if (view->role() == Role::kOrdinaryMember &&
          scenario.network().node(view->self()).alive()) {
        candidates.push_back(view->self());
      }
    }
    if (candidates.empty()) break;
    const NodeId victim = candidates[offsets.below(candidates.size())];
    const SimTime now = scenario.network().simulator().now();
    const SimTime crash_at =
        now + SimTime::micros(std::int64_t(
                  offsets.uniform(0.3, 0.95) *
                  double(config.heartbeat_interval.as_micros())));
    scenario.schedule_crash(victim, crash_at);
    scenario.run_epochs(3);
    epochs += 3;
    ++point.crashes;
    if (const auto first = scenario.metrics().first_detection(victim)) {
      ++point.detected;
      latency.add((first->when - crash_at).as_seconds());
    }
  }

  point.fp_rate = double(scenario.metrics().false_detections()) * 1000.0 /
                  (double(config.node_count) * double(epochs));
  point.latency_s = point.detected > 0 ? latency.mean() : 0.0;
  return point;
}

void print_pareto_study() {
  bench::banner("Static vs adaptive Pareto",
                "false-positive rate vs detection latency per loss regime");
  const LossRegime regimes[] = {
      {"steady-low", 0.05, false},
      {"steady-high", 0.30, false},
      {"bursty", 0.05, true},
  };
  const std::uint32_t thresholds[] = {500, 1000, 1500, 2000, 3000};
  // Latency slack for the dominance test: detections are quantized to R-3
  // instants, but victim draws diverge across variants (different rosters),
  // so "no worse latency" tolerates one round of measurement noise.
  const double kLatencySlackS = 0.15;

  bool dominated_somewhere = false;
  for (const LossRegime& regime : regimes) {
    std::printf("\n[%s] base loss %.2f%s\n", regime.name, regime.base_loss,
                regime.bursty ? " + 70% bursts" : "");
    std::printf("  %-16s %14s %12s %10s\n", "variant", "fp/1k-mem-ep",
                "latency(s)", "detected");
    const VariantPoint st = run_variant("static", regime, false, 0);
    std::printf("  %-16s %14.3f %12.2f %7zu/%zu\n", st.label, st.fp_rate,
                st.latency_s, st.detected, st.crashes);
    for (std::uint32_t threshold : thresholds) {
      char label[32];
      std::snprintf(label, sizeof label, "adaptive@%u", threshold);
      const VariantPoint ad = run_variant(label, regime, true, threshold);
      const bool dominates = ad.fp_rate < st.fp_rate &&
                             ad.latency_s <= st.latency_s + kLatencySlackS &&
                             ad.detected >= st.detected;
      std::printf("  %-16s %14.3f %12.2f %7zu/%zu%s\n", ad.label, ad.fp_rate,
                  ad.latency_s, ad.detected, ad.crashes,
                  dominates ? "  << dominates static" : "");
      dominated_somewhere = dominated_somewhere || dominates;
    }
  }
  std::printf("\n%s: adaptive %s static on at least one regime\n",
              dominated_somewhere ? "PASS" : "FAIL",
              dominated_somewhere ? "dominates" : "does not dominate");
  if (!dominated_somewhere) std::exit(1);
}

void BM_DetectionRound(benchmark::State& state) {
  const auto config = bench::scenario_config(550.0, 400.0, 300, 0.1, 7);
  Scenario scenario(config);
  scenario.setup();
  for (auto _ : state) {
    scenario.run_epochs(1);
  }
}
BENCHMARK(BM_DetectionRound)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  cfds::bench::parse_common_args(argc, argv);
  print_study();
  print_pareto_study();
  return cfds::bench::run_timings(argc, argv);
}
