// The uniform experiment flags, registered on the shared FlagSet
// (common/flags.h).
//
// RunnerOptions bundles the four flags every experiment entry point shares
// (--threads, --trials, --seed, --out) plus --no-wall-time for
// bit-reproducible JSONL.

#pragma once

#include <cstdint>
#include <string>

#include "common/flags.h"

namespace cfds::runner {

/// The uniform experiment flags. `trials` and `threads` keep 0 as "caller
/// decides" (benches fall back to their historical per-figure budgets;
/// threads 0 means one per hardware thread). `seed` keeps -1 as "caller
/// decides" so entry points can preserve their historical default seeds.
struct RunnerOptions {
  int threads = 0;
  long trials = 0;
  std::int64_t seed = -1;
  std::string out;  ///< JSONL path; empty = no sink, "-" = stdout
  bool no_wall_time = false;
  /// Run every simulator on the binary-heap event queue instead of the
  /// calendar queue (--no-calendar). The heap is the property-test oracle;
  /// the flag exists so any experiment can be replayed on it — output must
  /// be byte-identical (tools/check_perf.sh diffs the two).
  bool no_calendar = false;
  std::string fault_plan;  ///< FaultPlan JSONL to replay (empty = none)
  /// Label stamped on every BenchRecord this run writes (--label). The
  /// committed trajectory files (BENCH_kernel.json, BENCH_megascale.json)
  /// key rows by label — "pre_pr4"/"post_pr4", "post_pr5", ... — so a
  /// baseline refresh is one flag instead of a sed pass over the JSONL.
  std::string label = "current";

  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed >= 0 ? std::uint64_t(seed) : fallback;
  }
  [[nodiscard]] long trials_or(long fallback) const {
    return trials > 0 ? trials : fallback;
  }
};

/// Registers --threads/--trials/--seed/--out/--no-wall-time on the set.
void add_runner_flags(FlagSet& flags, RunnerOptions& options);

}  // namespace cfds::runner
