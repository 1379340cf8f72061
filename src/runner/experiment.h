// Declarative experiment specifications for the parallel runner.
//
// An ExperimentSpec names one estimator (a semantic Monte-Carlo measure from
// sim/fast_mc.h or a full protocol-stack measure from sim/single_cluster.h),
// a grid of (N, p, R) points, a trial budget per point, and a base seed. The
// executor (runner/executor.h) shards the trials across a thread pool; the
// spec itself is pure data, so benches and tests build sweeps the same way.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fds/detector.h"

namespace cfds::runner {

/// What each trial samples. The kMc* kinds run the closed-form-adjacent
/// semantic Monte-Carlo estimators; the kStack* kinds run one real
/// event-driven FDS execution per trial (orders of magnitude slower).
enum class EstimatorKind {
  kMcFalseDetection,       ///< Figure 5, sim/fast_mc.h
  kMcFalseDetectionOnCh,   ///< Figure 6, sim/fast_mc.h
  kMcIncompleteness,       ///< Figure 7, sim/fast_mc.h
  kStackFalseDetection,    ///< Figure 5 spot check, sim/single_cluster.h
  kStackFalseDetectionOnCh,///< Figure 6 spot check, sim/single_cluster.h
  kStackIncompleteness,    ///< Figure 7 spot check, sim/single_cluster.h
};

[[nodiscard]] const char* estimator_kind_name(EstimatorKind kind);
[[nodiscard]] bool is_full_stack(EstimatorKind kind);

/// One point of the parameter grid: cluster population N and loss
/// probability p. The transmission range R is kPaperRange everywhere.
struct GridPoint {
  int n = 100;
  double p = 0.3;
};

struct ExperimentSpec {
  std::string name;  ///< free-form label, copied into every JSONL record
  EstimatorKind kind = EstimatorKind::kMcFalseDetection;
  std::vector<GridPoint> grid;
  long trials = 100000;    ///< per grid point
  /// Trials per shard (the unit of work one thread executes). 0 picks a
  /// kind-appropriate default. The shard decomposition depends only on
  /// (trials, shard_trials) — never on the thread count — which is what
  /// makes results bit-identical across pool sizes.
  long shard_trials = 0;
  std::uint64_t seed = 1;

  // Protocol knobs forwarded to the estimator configs.
  RuleMode rule_mode = RuleMode::kFull;
  bool peer_forwarding = true;

  // Full-stack topology conditioning (ignored by the kMc* kinds).
  bool pin_edge_node = true;
  bool pin_deputy_center = false;
  std::size_t num_deputies = 1;

  /// Spec with the topology conditioning each figure's analysis assumes
  /// (edge-pinned watched node and no deputies for Figures 5/7, centre-pinned
  /// deputy for Figure 6). Callers override grid/trials/seed afterwards.
  [[nodiscard]] static ExperimentSpec for_kind(EstimatorKind kind);
};

/// Cross product helper: one GridPoint per (n, p) pair, in row-major order
/// (all p for the first n, then the next n, ...).
[[nodiscard]] std::vector<GridPoint> make_grid(const std::vector<int>& ns,
                                               const std::vector<double>& ps);

}  // namespace cfds::runner
