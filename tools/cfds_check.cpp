// cfds_check: exhaustive protocol state-space checker.
//
// Explore mode (default) enumerates every schedule of a bounded world —
// delivery order, per-frame drops, crashes and recoveries — within the
// given budgets, checking the safety invariants I-V1..I-V7 plus the
// quiescence probe at every crossing (src/check/world.h). On a violation
// it writes a JSONL counterexample trace (--out) and, optionally, the
// FaultPlan-schema tail alone (--plan) for bench_chaos --replay-plan.
//
// Replay mode (--replay FILE) re-executes a recorded trace: the world is
// rebuilt from the trace header's options and every choice point is pinned
// to the recording, so the violation reproduces deterministically. With
// --out the reproduced trace is re-serialized, which must match the
// original byte for byte (tools/check_model.sh relies on this).
//
// Exit codes: 0 = explored clean within budgets, 2 = violation found (or
// reproduced), 1 = usage or I/O error. `cfds_check --help` lists the flags.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "check/explorer.h"
#include "check/trace.h"
#include "check/world.h"
#include "common/flags.h"

// Stamped by the build: the seeded-mutation name compiled into the
// protocol libraries, or "" for the clean tree (tools/check_model.sh).
#ifndef CFDS_MUTATION_NAME
#define CFDS_MUTATION_NAME ""
#endif

namespace {

using cfds::check::CheckOptions;
using cfds::check::CheckTrace;
using cfds::check::ExploreLimits;

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return bool(out);
}

void describe(const cfds::check::Violation& v) {
  std::printf("VIOLATION %s at epoch %llu barrier %u: %s\n",
              v.invariant.c_str(), static_cast<unsigned long long>(v.epoch),
              v.barrier, v.detail.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kUsageError = 1;
  CheckOptions opts;
  ExploreLimits limits;
  std::string out_path;
  std::string plan_path;
  std::string replay_path;
  bool no_reduction = false;
  bool quiet = false;

  cfds::FlagSet flags;
  flags.add_value("--nodes", &opts.nodes, "cluster population, CH included");
  flags.add_value("--deputies", &opts.deputies, "ranked DCHs");
  flags.add_value("--epochs", &opts.epochs, "FDS executions with open choices");
  flags.add_value("--perm-max", &opts.perm_max,
                  "largest delivery batch given every order");
  flags.add_flag("--adaptive", &opts.adaptive, "self-tuning accrual detection");
  flags.add_flag("--checkpoint", &opts.checkpoint,
                 "checkpointed CH/DCH recovery");
  flags.add_value("--checkpoint-interval", &opts.checkpoint_interval,
                  "epochs between checkpoints");
  flags.add_flag("--no-reduction", &no_reduction,
                 "explore every order, without partial-order reduction");
  flags.add_value("--quiesce-max", &opts.quiesce_max,
                  "quiescence probe epochs (0 = off)");
  flags.add_millis("--t-hop-ms", &opts.t_hop, "one-hop bound Thop, ms (> 0)");
  flags.add_value("--crashes", &opts.max_crashes, "crashes to inject");
  flags.add_value("--recoveries", &opts.max_recoveries,
                  "recoveries to inject");
  flags.add_value("--drops", &opts.max_drops, "frame drops to inject");
  flags.add_value("--max-states", &limits.max_states,
                  "budget: unique fingerprints");
  flags.add_value("--max-runs", &limits.max_runs, "budget: schedules run");
  flags.add_value("--out", &out_path, "counterexample trace JSONL");
  flags.add_value("--plan", &plan_path,
                  "counterexample FaultPlan JSONL (bench_chaos --replay-plan)");
  flags.add_flag("--quiet", &quiet, "print nothing");
  flags.add_value("--replay", &replay_path,
                  "re-run a trace JSONL; --out writes the reproduced copy");
  flags.parse_all_or_exit(argc, argv, kUsageError);
  if (opts.t_hop <= cfds::SimTime::zero()) {
    flags.usage_error(argv[0], "--t-hop-ms must be > 0", kUsageError);
  }
  opts.reduction = !no_reduction;

  if (!replay_path.empty()) {
    std::string error;
    std::optional<CheckTrace> trace =
        cfds::check::load_trace(replay_path, &error);
    if (!trace) {
      std::fprintf(stderr, "cfds_check: %s\n", error.c_str());
      return 1;
    }
    if (trace->mutation != CFDS_MUTATION_NAME) {
      std::fprintf(stderr,
                   "cfds_check: warning: trace was recorded under mutation "
                   "'%s' but this build is '%s'\n",
                   trace->mutation.c_str(), CFDS_MUTATION_NAME);
    }
    const cfds::check::ReplayOutcome outcome =
        cfds::check::replay(trace->options, trace->choices);
    if (!outcome.error.empty()) {
      std::fprintf(stderr, "cfds_check: replay failed: %s\n",
                   outcome.error.c_str());
      return 1;
    }
    if (!outcome.violation) {
      std::fprintf(stderr,
                   "cfds_check: replay completed without a violation\n");
      return 1;
    }
    if (!quiet) describe(*outcome.violation);
    CheckTrace reproduced;
    reproduced.options = trace->options;
    reproduced.mutation = trace->mutation;
    reproduced.choices = trace->choices;
    reproduced.violation = outcome.violation;
    reproduced.fault_events = outcome.fault_events;
    if (!out_path.empty() &&
        !write_file(out_path, cfds::check::to_jsonl(reproduced))) {
      std::fprintf(stderr, "cfds_check: cannot write %s\n", out_path.c_str());
      return 1;
    }
    if (!plan_path.empty() &&
        !write_file(plan_path, cfds::check::fault_plan_jsonl(reproduced))) {
      std::fprintf(stderr, "cfds_check: cannot write %s\n", plan_path.c_str());
      return 1;
    }
    return 2;
  }

  const cfds::check::ExploreResult result = cfds::check::explore(opts, limits);
  if (!quiet) {
    std::printf("runs=%llu pruned=%llu unique_states=%llu%s\n",
                static_cast<unsigned long long>(result.runs),
                static_cast<unsigned long long>(result.pruned_runs),
                static_cast<unsigned long long>(result.unique_states),
                result.budget_exhausted ? " (budget exhausted)" : "");
  }
  if (!result.counterexample) {
    if (!quiet) std::printf("no violations\n");
    return 0;
  }

  const cfds::check::Counterexample& ce = *result.counterexample;
  if (!quiet) describe(ce.violation);
  CheckTrace trace;
  trace.options = opts;
  trace.mutation = CFDS_MUTATION_NAME;
  trace.choices = ce.choices;
  trace.violation = ce.violation;
  trace.fault_events = ce.fault_events;
  if (!out_path.empty() && !write_file(out_path, cfds::check::to_jsonl(trace))) {
    std::fprintf(stderr, "cfds_check: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!plan_path.empty() &&
      !write_file(plan_path, cfds::check::fault_plan_jsonl(trace))) {
    std::fprintf(stderr, "cfds_check: cannot write %s\n", plan_path.c_str());
    return 1;
  }
  return 2;
}
