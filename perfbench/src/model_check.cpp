// The model_check workload: check::explore run to exhaustion.
//
// The configuration (3 nodes, 3 epochs, one crash, one recovery, two drops,
// adaptive detection and checkpoints) explores 53,013 schedules and 30,884
// unique states. The explorer builds a fresh CheckWorld, with fresh
// FdsAgents, for every schedule, so this workload is set-up-heavy where the
// world workloads are steady-state-heavy. The exploration is exhaustive and
// deterministic: the seed does not change it, and the state count is checked
// against the recorded value.

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "check/explorer.h"
#include "check/world.h"
#include "clock.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cfds::check::CheckOptions;
using cfds::check::CheckWorld;
using cfds::check::ChoiceKind;
using cfds::check::ExploreLimits;
using cfds::check::ExploreResult;

struct ModelSpec {
  CheckOptions options;
  /// Unique states an exhaustive exploration must reach.
  std::uint64_t expected_states = 0;
};

ModelSpec model_spec(bool toy) {
  ModelSpec s;
  s.options.nodes = 3;
  s.options.epochs = toy ? 2 : 3;
  s.options.max_crashes = 1;
  s.options.max_recoveries = 1;
  s.options.max_drops = toy ? 1 : 2;
  s.options.adaptive = true;
  s.options.checkpoint = true;
  s.expected_states = toy ? 1938 : 30'884;
  return s;
}

/// A sink that is never consulted: CheckWorld's constructor makes no
/// choices. Used to time world construction on its own.
class IdleSink final : public cfds::check::ChoiceSink {
 public:
  std::uint32_t choose(std::uint32_t, ChoiceKind, std::uint64_t,
                       std::uint64_t) override {
    return 0;
  }
  bool note_state(std::uint64_t) override { return true; }
};

/// Worlds built per set-up sample: one construction is microseconds, too
/// short to time with one CPU-clock read on each side.
constexpr int kWorldsPerSample = 256;
constexpr int kSetupSamples = 9;

/// CPU seconds to construct and destroy one CheckWorld (median of samples).
double world_setup_s(const CheckOptions& options) {
  IdleSink sink;
  std::vector<double> samples;
  for (int s = 0; s < kSetupSamples; ++s) {
    const std::int64_t cpu0 = thread_cpu_ns();
    for (int i = 0; i < kWorldsPerSample; ++i) CheckWorld world(options, sink);
    samples.push_back(double(thread_cpu_ns() - cpu0) * 1e-9 /
                      kWorldsPerSample);
  }
  return median(samples);
}

struct Exploration {
  ExploreResult result;
  double cpu_s = 0.0;
};

Exploration explore_once(const ModelSpec& spec, Checks& checks) {
  Exploration e;
  const std::int64_t cpu0 = thread_cpu_ns();
  e.result = cfds::check::explore(spec.options, ExploreLimits{});
  e.cpu_s = double(thread_cpu_ns() - cpu0) * 1e-9;
  checks.expect(!e.result.counterexample.has_value(),
                "the model checker found a counterexample");
  checks.expect(!e.result.budget_exhausted,
                "the exploration exhausted its budget");
  if (spec.expected_states != 0) {
    checks.expect(e.result.unique_states == spec.expected_states,
                  "the exploration reached " +
                      std::to_string(e.result.unique_states) +
                      " unique states, not the recorded " +
                      std::to_string(spec.expected_states));
  }
  return e;
}


}  // namespace

void run_model_check(const RunOptions& options, MetricSet& metrics,
                     Checks& checks) {
  const ModelSpec spec = model_spec(options.toy);
  if (!options.traced) {
    const double setup_s = world_setup_s(spec.options);
    checks.operation();
    const std::uint32_t explorations =
        instance_count(options.seconds, options.toy ? 1.0 : 5.0);
    std::vector<double> ns_per_run;
    ExploreResult first;
    for (std::uint32_t i = 0; i < explorations; ++i) {
      const Exploration e = explore_once(spec, checks);
      if (i == 0) first = e.result;
      checks.expect(e.result.runs == first.runs &&
                        e.result.unique_states == first.unique_states,
                    "two explorations of one configuration differ");
      checks.operation();
      ns_per_run.push_back(e.cpu_s * 1e9 / double(e.result.runs));
    }
    metrics.add("setup_s", setup_s, "s");
    metrics.add("ns_per_op", median(ns_per_run), "ns");
    metrics.add("peak_rss_bytes_per_node",
                double(peak_rss_bytes()) / double(spec.options.nodes),
                "bytes");
    return;
  }

  // Traced: an untraced reference exploration, then one with spans and the
  // counting allocator on.
  const Exploration plain = explore_once(spec, checks);
  checks.operation();
  Trace trace;
  const std::int32_t root = trace.open("explore");
  alloc::set_counting(true);
  const Exploration traced = explore_once(spec, checks);
  alloc::set_counting(false);
  trace.close(root);
  checks.expect(traced.result.runs == plain.result.runs &&
                    traced.result.unique_states == plain.result.unique_states,
                "tracing changed the exploration");
  checks.operation();

  const ExploreResult& r = traced.result;
  metrics.add("check.runs", double(r.runs), "count");
  metrics.add("check.unique_states", double(r.unique_states), "count");
  metrics.add("check.prune_ratio",
              double(r.pruned_runs) / double(r.runs), "ratio");
  metrics.add("check.us_per_run", plain.cpu_s * 1e6 / double(plain.result.runs),
              "us");
  metrics.add("check.allocs_per_run",
              double(alloc::allocations()) / double(r.runs), "count");
  metrics.add("trace.overhead_ratio", traced.cpu_s / plain.cpu_s, "ratio");
  if (!options.trace_out.empty() && !trace.write_json(options.trace_out)) {
    checks.fail("could not write the trace file " + options.trace_out);
    checks.operation();
  }
}

}  // namespace perfbench
