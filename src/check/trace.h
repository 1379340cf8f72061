// Counterexample traces: JSONL serialization for cfds_check.
//
// A trace file pins everything needed to re-execute a violating schedule
// byte for byte:
//
//   {"cfds_check":1, ...options..., "mutation":"..."}     header
//   {"choice":{"kind":"drop","count":2,"chosen":1,...}}   one per choice
//   {"violation":{"invariant":"I-V4","epoch":1,...}}      when found
//   {"fault_plan":1,"seed":0,"events":2}                  FaultPlan header
//   {"fault":"crash","node":0,"at_us":300000}             one per fault
//
// The tail (from the fault_plan header on) is a FaultPlan (src/fault/
// fault_plan.h), written by FaultPlan::to_jsonl and read back by
// FaultPlan::parse_jsonl, so `cfds_check --plan` can split it out for
// bench_chaos --replay-plan, which re-injects the same crashes and
// recoveries through the stochastic stack. The choice lines are the
// event-order pin: `cfds_check --replay` feeds them back through a
// ReplaySink, reproducing the violation deterministically.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/world.h"

namespace cfds::check {

/// Everything a trace file round-trips.
struct CheckTrace {
  CheckOptions options;
  std::string mutation;  ///< build's CFDS_MUTATION_NAME; "" = clean tree
  std::vector<ChoiceRec> choices;
  std::optional<Violation> violation;
  std::vector<FaultEvent> fault_events;
};

/// Serializes the full trace (header, choices, violation, fault plan).
[[nodiscard]] std::string to_jsonl(const CheckTrace& trace);

/// Just the FaultPlan-schema tail, loadable by fault::FaultPlan::load.
[[nodiscard]] std::string fault_plan_jsonl(const CheckTrace& trace);

/// Parses to_jsonl() output. Returns nullopt with *error set on malformed
/// input; unknown keys are ignored, unknown line shapes are errors. The
/// fault tail runs to the end of the text and may hold only crash and
/// recover events.
[[nodiscard]] std::optional<CheckTrace> parse_jsonl(const std::string& text,
                                                    std::string* error);

/// Reads and parses a trace file.
[[nodiscard]] std::optional<CheckTrace> load_trace(const std::string& path,
                                                   std::string* error);

}  // namespace cfds::check
