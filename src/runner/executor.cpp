#include "runner/executor.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"
#include "sim/fast_mc.h"
#include "sim/single_cluster.h"

namespace cfds::runner {

std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t point,
                         std::uint64_t shard) {
  std::uint64_t state = seed;
  std::uint64_t mixed = splitmix64(state);
  state = mixed ^ (point * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
  mixed = splitmix64(state);
  state = mixed ^ (shard * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL);
  return splitmix64(state);
}

long default_shard_trials(EstimatorKind kind) {
  return is_full_stack(kind) ? 500 : 50000;
}

ProportionEstimator run_shard(const ExperimentSpec& spec,
                              const GridPoint& point, long trials,
                              std::uint64_t seed) {
  if (!is_full_stack(spec.kind)) {
    FastMcConfig config;
    config.n = point.n;
    config.p = point.p;
    config.rule_mode = spec.rule_mode;
    config.peer_forwarding = spec.peer_forwarding;
    Rng rng(seed);
    switch (spec.kind) {
      case EstimatorKind::kMcFalseDetection:
        return mc_false_detection(config, trials, rng);
      case EstimatorKind::kMcFalseDetectionOnCh:
        return mc_false_detection_on_ch(config, trials, rng);
      default:
        return mc_incompleteness(config, trials, rng);
    }
  }
  SingleClusterConfig config;
  config.n = point.n;
  config.p = point.p;
  config.seed = seed;
  config.rule_mode = spec.rule_mode;
  config.peer_forwarding = spec.peer_forwarding;
  config.pin_edge_node = spec.pin_edge_node;
  config.pin_deputy_center = spec.pin_deputy_center;
  config.num_deputies = spec.num_deputies;
  SingleClusterExperiment experiment(config);
  switch (spec.kind) {
    case EstimatorKind::kStackFalseDetection:
      return experiment.run_false_detection(int(trials));
    case EstimatorKind::kStackFalseDetectionOnCh:
      return experiment.run_false_detection_on_ch(int(trials));
    default:
      return experiment.run_incompleteness(int(trials));
  }
}

std::vector<PointResult> run_experiment(const ExperimentSpec& spec,
                                        ThreadPool& pool, ResultSink* sink) {
  std::vector<PointResult> results;
  if (spec.grid.empty() || spec.trials <= 0) return results;

  const long shard_size =
      spec.shard_trials > 0 ? spec.shard_trials : default_shard_trials(spec.kind);
  const long shards_per_point = (spec.trials + shard_size - 1) / shard_size;

  // Measures reporting-only wall time, emitted per point and stripped from
  // the JSONL under --no-wall-time; no simulated behaviour depends on it.
  // LINT-ALLOW(wall-clock): reporting-only timing
  const auto start = std::chrono::steady_clock::now();

  struct PointShards {
    std::vector<ProportionEstimator> parts;
    std::vector<std::future<void>> done;
  };
  std::vector<PointShards> pending(spec.grid.size());
  for (std::size_t i = 0; i < spec.grid.size(); ++i) {
    pending[i].parts.resize(std::size_t(shards_per_point));
    pending[i].done.reserve(std::size_t(shards_per_point));
    for (long s = 0; s < shards_per_point; ++s) {
      const long first = s * shard_size;
      const long count = std::min(shard_size, spec.trials - first);
      const std::uint64_t seed = shard_seed(spec.seed, i, std::uint64_t(s));
      ProportionEstimator* slot = &pending[i].parts[std::size_t(s)];
      pending[i].done.push_back(
          pool.submit([&spec, point = spec.grid[i], count, seed, slot] {
            *slot = run_shard(spec, point, count, seed);
          }));
    }
  }

  // Wait on every shard before the first get(): the shard lambdas reference
  // spec, which must stay alive if an exception unwinds this frame.
  for (PointShards& point : pending) {
    for (std::future<void>& f : point.done) f.wait();
  }
  results.reserve(spec.grid.size());
  for (std::size_t i = 0; i < spec.grid.size(); ++i) {
    PointResult result;
    result.point = spec.grid[i];
    result.shards = shards_per_point;
    for (std::size_t s = 0; s < pending[i].done.size(); ++s) {
      pending[i].done[s].get();
      result.estimator.merge(pending[i].parts[s]);
    }
    result.wall_ms =
        std::chrono::duration<double, std::milli>(
            // LINT-ALLOW(wall-clock): reporting-only, see above
            std::chrono::steady_clock::now() - start)
            .count();
    if (sink != nullptr) {
      PointRecord record;
      record.experiment = spec.name;
      record.kind = spec.kind;
      record.point = result.point;
      record.trials = result.estimator.trials();
      record.successes = result.estimator.successes();
      record.mean = result.estimator.estimate();
      record.ci99 = result.estimator.ci99();
      record.wilson = result.estimator.wilson99();
      record.seed = spec.seed;
      record.shards = result.shards;
      record.wall_ms = result.wall_ms;
      sink->write(record);
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace cfds::runner
