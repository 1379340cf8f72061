#include "check/explorer.h"

#include <unordered_set>
#include <utility>

#include "common/expect.h"

namespace cfds::check {

namespace {

/// DFS sink: replays a forced prefix, defaults to branch 0 beyond it, and
/// records every choice point offered. It reports replaying() while the
/// prefix lasts, so it sees, and prunes on, only the crossings beyond it.
class DfsSink final : public ChoiceSink {
 public:
  explicit DfsSink(std::unordered_set<std::uint64_t>& visited)
      : visited_(visited) {}

  void start_run(std::vector<std::uint32_t> prefix) {
    prefix_ = std::move(prefix);
    cursor_ = 0;
    recs_.clear();
  }

  std::uint32_t choose(std::uint32_t count, ChoiceKind kind, std::uint64_t a,
                       std::uint64_t b) override {
    std::uint32_t branch = 0;
    if (cursor_ < prefix_.size()) {
      branch = prefix_[cursor_];
      CFDS_EXPECT(branch < count, "odometer prefix out of range: the world "
                                  "diverged from its recording");
    }
    ++cursor_;
    recs_.push_back({kind, count, branch, a, b});
    return branch;
  }

  bool note_state(std::uint64_t fp) override {
    return visited_.insert(fp).second;
  }

  // Until the prefix's last (incremented) choice is consumed, this run
  // retraces the run that recorded it, whose crossings — every one up to
  // that choice — are already in visited_: either noted by that run or
  // retraced by it in turn. Pruning there would cut off the sibling branch
  // this run exists to reach, and re-inserting them would change nothing.
  [[nodiscard]] bool replaying() const override {
    return cursor_ < prefix_.size();
  }

  [[nodiscard]] const std::vector<ChoiceRec>& recs() const { return recs_; }

 private:
  std::unordered_set<std::uint64_t>& visited_;
  std::vector<std::uint32_t> prefix_;
  std::size_t cursor_ = 0;
  std::vector<ChoiceRec> recs_;
};

/// Replay sink: pins every choice to the recording and never prunes.
class ReplaySink final : public ChoiceSink {
 public:
  explicit ReplaySink(const std::vector<ChoiceRec>& choices)
      : choices_(choices) {}

  std::uint32_t choose(std::uint32_t count, ChoiceKind kind, std::uint64_t a,
                       std::uint64_t b) override {
    (void)kind;
    (void)a;
    (void)b;
    if (cursor_ >= choices_.size()) {
      exhausted_ = true;
      return 0;
    }
    const ChoiceRec& rec = choices_[cursor_++];
    if (rec.count != count || rec.chosen >= count) {
      mismatch_ = true;
      return 0;
    }
    return rec.chosen;
  }

  bool note_state(std::uint64_t) override { return true; }

  [[nodiscard]] bool mismatch() const { return mismatch_; }
  [[nodiscard]] bool exhausted() const { return exhausted_; }

 private:
  const std::vector<ChoiceRec>& choices_;
  std::size_t cursor_ = 0;
  bool mismatch_ = false;
  bool exhausted_ = false;
};

}  // namespace

ExploreResult explore(const CheckOptions& opts, const ExploreLimits& limits) {
  ExploreResult result;
  std::unordered_set<std::uint64_t> visited;
  DfsSink sink(visited);
  std::vector<std::uint32_t> prefix;

  for (;;) {
    if (result.runs >= limits.max_runs ||
        visited.size() >= limits.max_states) {
      result.budget_exhausted = true;
      break;
    }

    sink.start_run(std::move(prefix));
    prefix.clear();
    CheckWorld world(opts, sink);
    std::optional<Violation> violation = world.run();
    ++result.runs;
    if (world.pruned()) ++result.pruned_runs;
    if (violation) {
      result.counterexample =
          Counterexample{std::move(*violation), sink.recs(),
                         world.fault_events()};
      break;
    }

    // Odometer: last recorded choice with an untaken sibling becomes the
    // next prefix's final (incremented) entry.
    const std::vector<ChoiceRec>& recs = sink.recs();
    std::size_t keep = recs.size();
    while (keep > 0 && recs[keep - 1].chosen + 1 >= recs[keep - 1].count) {
      --keep;
    }
    if (keep == 0) break;  // tree exhausted
    prefix.reserve(keep);
    for (std::size_t i = 0; i + 1 < keep; ++i) {
      prefix.push_back(recs[i].chosen);
    }
    prefix.push_back(recs[keep - 1].chosen + 1);
  }

  result.unique_states = visited.size();
  return result;
}

ReplayOutcome replay(const CheckOptions& opts,
                     const std::vector<ChoiceRec>& choices) {
  ReplaySink sink(choices);
  CheckWorld world(opts, sink);
  ReplayOutcome outcome;
  outcome.violation = world.run();
  outcome.fault_events = world.fault_events();
  if (sink.mismatch()) {
    outcome.error =
        "choice trace does not match this world: branching factor diverged "
        "(different options or build?)";
  } else if (!outcome.violation && sink.exhausted()) {
    outcome.error = "choice trace exhausted without reproducing a violation";
  }
  return outcome;
}

}  // namespace cfds::check
