// Chaos campaign: seeded fault-injection trials with an invariant oracle.
//
// Each trial generates a random FaultPlan from its seed, drives a ~10-cluster
// deployment through warmup / fault / quiescence phases (fault/chaos.h), and
// checks the invariants I1-I5 and I-V1/I-V6/I-V7 (fault/oracle.h; the table
// is in docs/FAULTS.md). The campaign fans trials across the thread pool but
// emits results in trial order, so the JSONL stream is byte-identical for any
// --threads value.
//
// Modes (on top of the uniform runner flags):
//
//   default            campaign of --trials trials from --seed upward; exits
//                      nonzero if any trial violates an invariant
//   --replay-seed S    one trial; prints its generated plan then the verdict
//   --fault-plan F     one trial replaying the plan file F against the
//                      deployment derived from --seed (docs/FAULTS.md)
//   --replay-plan F    alias for --fault-plan; the name cfds_check's --plan
//                      output documents (docs/MODEL_CHECKING.md)
//   --dump-plans DIR   campaign also writes every trial's plan to DIR
//   --rejoin-compare   paired campaign: every seed runs once with cold
//                      rejoin and once with checkpointed recovery, and the
//                      rejoin-to-consistent times are compared (the
//                      checkpoint arm must win; docs/ADAPTIVE.md)
//
// Feature toggles (default off, matching the simulation defaults):
//
//   --adaptive         self-tuning accrual detection on every node
//   --checkpoint       checkpointed CH/DCH recovery
//   --loss-bursts N    add N channel-wide loss bursts to every random plan
//
// Failing trials always get their plan written to plan_<seed>.fail.jsonl
// (under --dump-plans DIR if given, else the working directory) so a
// violation found in CI replays locally byte for byte, and the snapshots the
// oracle judged — one Snapshot JSON line per node, with its position — to
// snapshots_<seed>.fail.jsonl next to it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"

namespace {

using namespace cfds;

FILE* open_lines_out(const std::string& path) {
  if (path.empty() || path == "-") return stdout;
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open --out %s\n", path.c_str());
    std::exit(2);
  }
  return file;
}

/// Writes `text` to DIR/<prefix>_<seed>[.fail].jsonl.
void write_trial_file(const std::string& dir, const char* prefix,
                      std::uint64_t seed, bool failing,
                      const std::string& text) {
  char name[128];
  std::snprintf(name, sizeof name, "%s_%llu%s.jsonl", prefix,
                static_cast<unsigned long long>(seed), failing ? ".fail" : "");
  const std::string path = (dir.empty() ? std::string(".") : dir) + "/" + name;
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
}

void print_violations(const fault::ChaosResult& result,
                      const char* arm = "") {
  for (const InvariantViolation& v : result.violations) {
    std::fprintf(stderr, "%s%sseed %llu VIOLATION %s: %s\n", arm,
                 *arm != '\0' ? " " : "",
                 static_cast<unsigned long long>(result.seed), v.invariant,
                 v.detail.c_str());
  }
}

int report_single(const fault::ChaosResult& result) {
  std::printf("%s\n", result.summary_json().c_str());
  print_violations(result);
  return result.passed() ? 0 : 1;
}

/// One trial, generated plan printed first so the run is reproducible.
int run_replay_seed(const fault::ChaosConfig& config, std::uint64_t seed) {
  const fault::ChaosResult result = fault::run_chaos_trial(config, seed);
  std::printf("%s\n", result.plan.to_jsonl().c_str());
  return report_single(result);
}

/// One trial replaying an explicit plan file.
int run_plan_file(const fault::ChaosConfig& config, const std::string& path,
                  std::uint64_t seed) {
  std::string error;
  const auto plan = fault::FaultPlan::load(path, &error);
  if (!plan) {
    std::fprintf(stderr, "bad --fault-plan %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  return report_single(fault::replay_chaos_trial(config, seed, *plan));
}

/// Paired campaign: every seed's plan runs against the same deployment with
/// checkpointed recovery off and on, and the per-arm rejoin-to-consistent
/// aggregates are compared. The plans are identical across arms (plan
/// generation does not depend on the feature flags), so any difference in
/// rejoin time is attributable to the checkpoint path.
int run_rejoin_compare(fault::ChaosConfig config, long trials,
                       std::uint64_t base_seed) {
  bench::banner("Chaos rejoin comparison",
                "cold rejoin vs checkpointed CH/DCH recovery");
  const std::size_t count = std::size_t(trials);
  std::vector<fault::ChaosResult> cold(count);
  std::vector<fault::ChaosResult> warm(count);
  fault::ChaosConfig cold_config = config;
  cold_config.checkpoint = false;
  fault::ChaosConfig warm_config = config;
  warm_config.checkpoint = true;
  bench::pool().parallel_for(2 * count, [&](std::size_t i) {
    const std::uint64_t seed = base_seed + (i % count);
    if (i < count) {
      cold[i] = fault::run_chaos_trial(cold_config, seed);
    } else {
      warm[i - count] = fault::run_chaos_trial(warm_config, seed);
    }
  });

  long violated = 0;
  auto summarize = [&](const char* arm,
                       const std::vector<fault::ChaosResult>& results,
                       std::int64_t* mean_out) {
    std::size_t rejoins = 0, pending = 0;
    std::int64_t total_us = 0, max_us = 0;
    for (const fault::ChaosResult& r : results) {
      if (!r.passed()) {
        ++violated;
        print_violations(r, arm);
      }
      rejoins += r.rejoins;
      pending += r.rejoin_pending;
      total_us += r.rejoin_mean_us * std::int64_t(r.rejoins);
      max_us = std::max(max_us, r.rejoin_max_us);
    }
    const std::int64_t mean = rejoins > 0 ? total_us / std::int64_t(rejoins) : 0;
    *mean_out = mean;
    std::printf("  %-10s rejoins=%zu pending=%zu mean=%.3fs max=%.3fs\n", arm,
                rejoins, pending, double(mean) / 1e6, double(max_us) / 1e6);
  };
  std::int64_t cold_mean = 0, warm_mean = 0;
  summarize("cold", cold, &cold_mean);
  summarize("checkpoint", warm, &warm_mean);
  if (violated > 0) {
    std::printf("\nFAIL: %ld trial(s) violated invariants\n", violated);
    return 1;
  }
  if (warm_mean >= cold_mean) {
    std::printf("\nFAIL: checkpointed rejoin (%.3fs) not faster than cold "
                "(%.3fs)\n",
                double(warm_mean) / 1e6, double(cold_mean) / 1e6);
    return 1;
  }
  std::printf("\nPASS: checkpointed rejoin %.3fs < cold %.3fs (-%lld%%)\n",
              double(warm_mean) / 1e6, double(cold_mean) / 1e6,
              static_cast<long long>(100 - 100 * warm_mean / cold_mean));
  return 0;
}

int run_campaign(const fault::ChaosConfig& config, long trials,
                 std::uint64_t base_seed, const std::string& dump_dir,
                 bool dump_all) {
  bench::banner("Chaos campaign",
                "seeded fault injection + invariant oracle");
  const std::size_t count = std::size_t(trials);
  std::vector<fault::ChaosResult> results(count);
  bench::pool().parallel_for(count, [&](std::size_t i) {
    results[i] = fault::run_chaos_trial(config, base_seed + i);
  });

  FILE* out = open_lines_out(bench::options().out);
  long failed = 0;
  for (const fault::ChaosResult& result : results) {
    std::fprintf(out, "%s\n", result.summary_json().c_str());
    if (!result.passed()) {
      ++failed;
      print_violations(result);
      std::string lines;
      for (const Snapshot& s : result.snapshots) lines += s.to_json() + "\n";
      write_trial_file(dump_dir, "snapshots", result.seed, true, lines);
    }
    if (dump_all || !result.passed()) {
      write_trial_file(dump_dir, "plan", result.seed, !result.passed(),
                       result.plan.to_jsonl());
    }
  }
  if (out != stdout) std::fclose(out);

  std::printf("\n%ld trials from seed %llu: %ld passed, %ld violated\n",
              trials, static_cast<unsigned long long>(base_seed), trials - failed, failed);
  return failed == 0 ? 0 : 1;
}

void BM_ChaosTrial(benchmark::State& state) {
  const fault::ChaosConfig config;
  std::uint64_t seed = 0xC4A05;
  for (auto _ : state) {
    const fault::ChaosResult result =
        fault::run_chaos_trial(config, seed++);
    benchmark::DoNotOptimize(result.alive);
  }
}
BENCHMARK(BM_ChaosTrial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string dump_plans;
  std::string replay_plan;
  long long replay_seed = -1;
  bool adaptive = false;
  bool checkpoint = false;
  bool rejoin_compare = false;
  long loss_bursts = 0;
  runner::FlagSet extra;
  extra.add_value("--dump-plans", &dump_plans,
                  "directory for per-trial FaultPlan JSONL files");
  extra.add_value("--replay-seed", &replay_seed,
                  "run exactly one trial with this seed and print its plan");
  extra.add_value("--replay-plan", &replay_plan,
                  "replay a FaultPlan JSONL file (e.g. cfds_check --plan)");
  extra.add_flag("--adaptive", &adaptive,
                 "enable self-tuning accrual detection");
  extra.add_flag("--checkpoint", &checkpoint,
                 "enable checkpointed CH/DCH recovery");
  extra.add_flag("--rejoin-compare", &rejoin_compare,
                 "paired campaign: cold vs checkpointed rejoin time");
  extra.add_value("--loss-bursts", &loss_bursts,
                  "channel-wide loss bursts per random plan");
  cfds::bench::parse_common_args(argc, argv, std::move(extra));
  const auto& opts = cfds::bench::options();

  fault::ChaosConfig config;
  config.adaptive = adaptive;
  config.checkpoint = checkpoint;
  config.mix.loss_bursts = int(loss_bursts);

  if (!replay_plan.empty()) {
    return run_plan_file(config, replay_plan, opts.seed_or(1));
  }
  if (!opts.fault_plan.empty()) {
    return run_plan_file(config, opts.fault_plan, opts.seed_or(1));
  }
  if (replay_seed >= 0) {
    return run_replay_seed(config, std::uint64_t(replay_seed));
  }
  if (rejoin_compare) {
    return run_rejoin_compare(config, opts.trials_or(40), opts.seed_or(1));
  }

  const int status = run_campaign(config, opts.trials_or(500), opts.seed_or(1),
                                  dump_plans, !dump_plans.empty());
  if (status != 0) return status;

  return cfds::bench::run_timings(argc, argv);
}
