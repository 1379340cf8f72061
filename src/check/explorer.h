// Exhaustive schedule enumeration over CheckWorld.
//
// The explorer is a depth-first odometer over choice sequences. Worlds are
// not resettable (agents hold references into nodes/views/transports), so
// instead of backtracking in place the explorer re-executes: each run
// replays a forced prefix of choices, then extends it with branch 0 at
// every new choice point. When the run ends, the odometer finds the last
// recorded choice with an untaken sibling, truncates there, increments,
// and replays. Replay is cheap relative to the state space because the
// visited-fingerprint set prunes any run that leaves the prefix into an
// already-explored state: budgets are part of the fingerprint, so two
// visits to the same fingerprint have identical future choice trees, and
// the first visit's subtree is fully enumerated by prefix extension.
//
// While a run is still consuming its forced prefix the sink reports
// replaying(), and the world neither fingerprints nor prunes: those states
// were necessarily visited by the parent run (pruning there would cut off
// the sibling branches the odometer is trying to reach, and hashing them
// again would only re-insert known fingerprints).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/world.h"

namespace cfds::check {

/// Exploration budgets. Exceeding either stops the search with
/// `budget_exhausted` set; everything enumerated so far has been checked.
struct ExploreLimits {
  std::uint64_t max_states = 1'000'000;  ///< unique fingerprints
  std::uint64_t max_runs = 10'000'000;   ///< schedules executed
};

/// A violating schedule: the violation, the full choice sequence that
/// reaches it, and the crash/recover events that sequence injected.
struct Counterexample {
  Violation violation;
  std::vector<ChoiceRec> choices;
  std::vector<FaultEvent> fault_events;
};

struct ExploreResult {
  std::uint64_t runs = 0;           ///< schedules executed (incl. pruned)
  std::uint64_t pruned_runs = 0;    ///< runs cut short at a visited state
  std::uint64_t unique_states = 0;  ///< distinct crossing fingerprints
  bool budget_exhausted = false;
  std::optional<Counterexample> counterexample;
};

/// Enumerates every choice sequence of worlds built from `opts`, within
/// `limits`. Stops at the first violation.
[[nodiscard]] ExploreResult explore(const CheckOptions& opts,
                                    const ExploreLimits& limits);

/// One pinned re-execution of a recorded choice sequence.
struct ReplayOutcome {
  std::optional<Violation> violation;
  std::vector<FaultEvent> fault_events;
  /// Non-empty when the trace did not apply cleanly (a choice point's
  /// branching factor differed from the recording — options or build
  /// mismatch), or when the trace ran out before any violation.
  std::string error;
};

/// Replays `choices` against a fresh world built from `opts`.
[[nodiscard]] ReplayOutcome replay(const CheckOptions& opts,
                                   const std::vector<ChoiceRec>& choices);

}  // namespace cfds::check
