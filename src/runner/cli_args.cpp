#include "runner/cli_args.h"

namespace cfds::runner {

void add_runner_flags(FlagSet& flags, RunnerOptions& options) {
  flags.add_value("--threads", &options.threads,
                  "worker threads (0 = one per hardware thread)");
  flags.add_value("--trials", &options.trials,
                  "trials per grid point (0 = per-experiment default)");
  flags.add_value("--seed", &options.seed,
                  "base RNG seed (-1 = per-experiment default)");
  flags.add_value("--out", &options.out,
                  "JSONL results path (\"-\" = stdout)");
  flags.add_flag("--no-wall-time", &options.no_wall_time,
                 "omit wall_ms from JSONL (bit-reproducible output)");
  flags.add_flag("--no-calendar", &options.no_calendar,
                 "use the binary-heap event queue (calendar-queue oracle)");
  flags.add_value("--fault-plan", &options.fault_plan,
                  "FaultPlan JSONL to inject/replay (docs/FAULTS.md)");
  flags.add_value("--label", &options.label,
                  "label stamped on BenchRecord JSONL rows (baselines)");
}

}  // namespace cfds::runner
