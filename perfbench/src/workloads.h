// The benchmark's workloads. Each one runs single-threaded in this process
// from a seed, checks the simulator's outputs, and fills either the
// end-to-end metrics (untraced) or the per-layer metrics (traced).

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget: further timed units start only while they are
  /// expected to finish inside it (at least one always runs).
  double seconds = 10.0;
  bool traced = false;
  /// Toy sizes for the smoke test.
  bool toy = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// Instances a run measures: as many instances of `nominal_s` seconds as
/// fit in `seconds`, at least one. It depends on the arguments only, never
/// on measured time, so one seed and --seconds always give one batch.
[[nodiscard]] inline std::uint32_t instance_count(double seconds,
                                                  double nominal_s) {
  return std::max<std::uint32_t>(1, std::uint32_t(seconds / nominal_s + 0.5));
}

/// paper_2k, steady_10k, bursty_churn_2k.
[[nodiscard]] bool is_world_workload(const std::string& name);
void run_world_workload(const RunOptions& options, MetricSet& metrics,
                        Checks& checks);

/// model_check.
void run_model_check(const RunOptions& options, MetricSet& metrics,
                     Checks& checks);

}  // namespace perfbench
