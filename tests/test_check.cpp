// Tests for the model checker (src/check/): fingerprint determinism and
// per-field sensitivity, exploration determinism, reduction soundness on
// n=3 worlds, and counterexample-trace round-trips. The mutation-kill side
// of the checker's own validation lives in tools/check_model.sh.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "check/explorer.h"
#include "check/fingerprint.h"
#include "check/trace.h"
#include "check/world.h"
#include "cluster/roles.h"
#include "fds/detector.h"
#include "fds/failure_log.h"
#include "fds/messages.h"

namespace cfds::check {
namespace {

// ---------------------------------------------------------------------------
// Fingerprint hashing

TEST(HasherTest, SameInputSameDigest) {
  Hasher a;
  Hasher b;
  a.mix(1);
  a.mix(2);
  b.mix(1);
  b.mix(2);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(HasherTest, OrderAndBoundariesMatter) {
  Hasher ab;
  ab.mix(1);
  ab.mix(2);
  Hasher ba;
  ba.mix(2);
  ba.mix(1);
  EXPECT_NE(ab.digest(), ba.digest());

  const std::uint8_t bytes[3] = {'a', 'b', 'c'};
  Hasher split;
  split.mix_bytes(bytes, 2);
  split.mix_bytes(bytes + 2, 1);
  Hasher whole;
  whole.mix_bytes(bytes, 3);
  EXPECT_NE(split.digest(), whole.digest());
}

std::uint64_t cluster_digest(const ClusterView& view) {
  Hasher h;
  StateFingerprinter::mix_cluster(h, view);
  return h.digest();
}

TEST(FingerprintTest, EveryClusterFieldIsSensitive) {
  ClusterView base;
  base.id = ClusterId(3);
  base.clusterhead = NodeId(1);
  base.members = {NodeId(2), NodeId(4)};
  base.deputies = {NodeId(2)};

  ClusterView v = base;
  v.id = ClusterId(4);
  EXPECT_NE(cluster_digest(base), cluster_digest(v));
  v = base;
  v.clusterhead = NodeId(2);
  EXPECT_NE(cluster_digest(base), cluster_digest(v));
  v = base;
  v.members.push_back(NodeId(5));
  EXPECT_NE(cluster_digest(base), cluster_digest(v));
  v = base;
  v.deputies = {NodeId(4)};
  EXPECT_NE(cluster_digest(base), cluster_digest(v));
  EXPECT_EQ(cluster_digest(base), cluster_digest(base));
}

std::uint64_t evidence_digest(const RoundEvidence& evidence) {
  Hasher h;
  StateFingerprinter::mix_evidence(h, evidence);
  return h.digest();
}

TEST(FingerprintTest, EveryEvidenceFieldIsSensitive) {
  RoundEvidence base;
  base.heartbeats.insert(NodeId(1));
  base.digest_from(NodeId(2)).insert(NodeId(1));

  RoundEvidence e;
  e.heartbeats = base.heartbeats;
  e.digest_from(NodeId(2)).insert(NodeId(1));
  e.ch_update_heard = true;
  EXPECT_NE(evidence_digest(base), evidence_digest(e));

  e.ch_update_heard = false;
  EXPECT_EQ(evidence_digest(base), evidence_digest(e));
  e.heartbeats.insert(NodeId(3));
  EXPECT_NE(evidence_digest(base), evidence_digest(e));

  e.heartbeats = base.heartbeats;
  e.digest_from(NodeId(2)).insert(NodeId(3));
  EXPECT_NE(evidence_digest(base), evidence_digest(e));

  // The slot table must be transparent to the fingerprint: recording the
  // same digests through a recycled slot (erase + re-add) hashes identically
  // to recording them fresh.
  RoundEvidence recycled;
  recycled.heartbeats.insert(NodeId(1));
  recycled.digest_from(NodeId(7)).insert(NodeId(8));
  recycled.erase_digest(NodeId(7));
  recycled.digest_from(NodeId(2)).insert(NodeId(1));
  EXPECT_EQ(evidence_digest(base), evidence_digest(recycled));
}

std::uint64_t log_digest(const FailureLog& log) {
  Hasher h;
  StateFingerprinter::mix_failure_log(h, log);
  return h.digest();
}

TEST(FingerprintTest, FailureLogEntriesAreSensitive) {
  FailureLog base;
  ASSERT_TRUE(base.record(
      NodeId(4), {SimTime::millis(100), /*epoch=*/2, NodeId(1)}));

  FailureLog extra;
  ASSERT_TRUE(extra.record(
      NodeId(4), {SimTime::millis(100), /*epoch=*/2, NodeId(1)}));
  EXPECT_EQ(log_digest(base), log_digest(extra));
  ASSERT_TRUE(extra.record(
      NodeId(5), {SimTime::millis(100), /*epoch=*/2, NodeId(1)}));
  EXPECT_NE(log_digest(base), log_digest(extra));

  FailureLog other_reporter;
  ASSERT_TRUE(other_reporter.record(
      NodeId(4), {SimTime::millis(100), /*epoch=*/2, NodeId(2)}));
  EXPECT_NE(log_digest(base), log_digest(other_reporter));

  // Entry::epoch and Entry::learned_at are FP-EXEMPT (fingerprint.cpp): no
  // protocol decision reads them back, so they must NOT split states.
  FailureLog other_epoch;
  ASSERT_TRUE(other_epoch.record(
      NodeId(4), {SimTime::millis(200), /*epoch=*/3, NodeId(1)}));
  EXPECT_EQ(log_digest(base), log_digest(other_epoch));
}

std::uint64_t payload_digest(const Payload& payload) {
  Hasher h;
  StateFingerprinter::mix_payload(h, payload);
  return h.digest();
}

TEST(FingerprintTest, PayloadContentIsSensitive) {
  HeartbeatPayload base;
  base.sender = NodeId(2);

  HeartbeatPayload other_sender;
  other_sender.sender = NodeId(3);
  EXPECT_NE(payload_digest(base), payload_digest(other_sender));

  HeartbeatPayload unmarked;
  unmarked.sender = NodeId(2);
  unmarked.marked = false;
  EXPECT_NE(payload_digest(base), payload_digest(unmarked));

  HeartbeatPayload same;
  same.sender = NodeId(2);
  EXPECT_EQ(payload_digest(base), payload_digest(same));
}

// mix_payload encodes into a buffer it reuses from call to call; a long
// frame hashed first must leave nothing behind in a short frame's digest.
TEST(FingerprintTest, ReusedEncodeBufferDoesNotLeak) {
  HeartbeatPayload beat;
  beat.sender = NodeId(2);
  const std::uint64_t alone = payload_digest(beat);

  HealthUpdatePayload update;
  update.cluster = ClusterId(0);
  update.sender = NodeId(0);
  update.epoch = 7;
  for (std::uint32_t i = 1; i < 40; ++i) {
    update.all_failed.push_back(NodeId(i));
    update.members_snapshot.push_back(NodeId(100 + i));
  }
  update.newly_failed = {NodeId(3), NodeId(5)};
  update.admitted = {NodeId(101)};

  Hasher h;
  StateFingerprinter::mix_payload(h, update);
  EXPECT_NE(h.digest(), alone);
  EXPECT_EQ(payload_digest(beat), alone);
}

// ---------------------------------------------------------------------------
// Exploration

CheckOptions small_world() {
  CheckOptions opts;
  opts.nodes = 3;
  opts.epochs = 2;
  return opts;
}

TEST(ExplorerTest, ExplorationIsDeterministic) {
  CheckOptions opts = small_world();
  opts.max_drops = 1;
  ExploreLimits limits;
  const ExploreResult a = explore(opts, limits);
  const ExploreResult b = explore(opts, limits);
  EXPECT_FALSE(a.counterexample.has_value());
  EXPECT_GT(a.unique_states, 0u);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.pruned_runs, b.pruned_runs);
  EXPECT_EQ(a.unique_states, b.unique_states);
}

TEST(ExplorerTest, StateBudgetIsHonoured) {
  CheckOptions opts = small_world();
  opts.max_drops = 2;
  const ExploreResult unbounded = explore(opts, ExploreLimits{});
  ASSERT_FALSE(unbounded.budget_exhausted);

  ExploreLimits limits;
  limits.max_states = 50;
  const ExploreResult capped = explore(opts, limits);
  EXPECT_TRUE(capped.budget_exhausted);
  // The budget is checked between runs, so the final run may overshoot by
  // the handful of states it visits — but exploration stops right there.
  EXPECT_GE(capped.unique_states, 50u);
  EXPECT_LT(capped.unique_states, unbounded.unique_states);
}

// The receiver-major reduction must not change the verdict: on clean n=3
// worlds both explorations are violation-free, and because states are
// fingerprinted only at barrier crossings (where commuting deliveries to
// different receivers have already merged), both modes must reach exactly
// the same crossing-state set.
TEST(ExplorerTest, ReductionPreservesTheViolationSet) {
  CheckOptions opts = small_world();
  opts.max_crashes = 1;
  opts.max_drops = 1;
  ExploreLimits limits;

  opts.reduction = true;
  const ExploreResult reduced = explore(opts, limits);
  opts.reduction = false;
  const ExploreResult full = explore(opts, limits);

  EXPECT_FALSE(reduced.counterexample.has_value());
  EXPECT_FALSE(full.counterexample.has_value());
  EXPECT_FALSE(reduced.budget_exhausted);
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_GT(reduced.unique_states, 0u);
  EXPECT_EQ(reduced.unique_states, full.unique_states);
}

/// Pins every choice to a fixed branch list (cycled, reduced modulo the
/// branches offered) and records every crossing fingerprint it is shown.
class FixedChoiceSink final : public ChoiceSink {
 public:
  explicit FixedChoiceSink(std::vector<std::uint32_t> branches)
      : branches_(std::move(branches)) {}

  std::uint32_t choose(std::uint32_t count, ChoiceKind, std::uint64_t,
                       std::uint64_t) override {
    return branches_[next_++ % branches_.size()] % count;
  }
  bool note_state(std::uint64_t fp) override {
    fingerprints.push_back(fp);
    return true;
  }

  std::vector<std::uint64_t> fingerprints;

 private:
  std::vector<std::uint32_t> branches_;
  std::size_t next_ = 0;
};

/// The model_check reference configuration (docs/MODEL_CHECKING.md).
CheckOptions reference_world() {
  CheckOptions opts;
  opts.nodes = 3;
  opts.epochs = 3;
  opts.max_crashes = 1;
  opts.max_recoveries = 1;
  opts.max_drops = 2;
  opts.adaptive = true;
  opts.checkpoint = true;
  return opts;
}

// One fixed schedule of the reference world (a crash, a recovery, drops and
// reorders, checkpoints and adaptive state on the air) yields exactly these
// crossing fingerprints, so neither the fingerprint's encoding nor the
// check world's timer queue can shift a value unnoticed.
TEST(FingerprintTest, FixedScheduleFingerprintsArePinned) {
  FixedChoiceSink sink({0, 1, 0, 2, 1, 0, 3, 0, 1});
  CheckWorld world(reference_world(), sink);
  const std::optional<Violation> violation = world.run();
  EXPECT_FALSE(violation.has_value());
  EXPECT_FALSE(world.pruned());
  EXPECT_EQ(world.fault_events().size(), 2u);
  const std::vector<std::uint64_t> expected = {
      0x1edc627db9d70e31ULL, 0x9e4000902b58ad50ULL, 0x94bf5be3c74c4e3bULL,
      0x82dab83ee14211b5ULL, 0x55cdf721e9628087ULL, 0x49577f4fcbc89e3dULL,
      0xf288e57894fa1ff2ULL, 0x5c770dbcc69cb142ULL, 0x60c636bc7a140076ULL,
      0x7f0e9997c0d91ce4ULL, 0x283e305cb2f22182ULL, 0x9dc25489cf8a3072ULL,
      0x7cf10733a101af2fULL, 0xcd7b221eac077361ULL, 0xae73ebe422cd08d0ULL,
      0x9893c29742fa19fdULL, 0x1827aa2d02a016a1ULL, 0x2fe2e663bbbc93b4ULL,
  };
  EXPECT_EQ(sink.fingerprints, expected);
}

/// The explorer's odometer (explorer.cpp), rebuilt around a sink that is
/// shown every crossing: replaying() stays false, so the world fingerprints
/// the forced prefix too, and the sink counts each prefix crossing whose
/// fingerprint is not yet in its visited set.
class AuditingOdometerSink final : public ChoiceSink {
 public:
  void start_run(std::vector<std::uint32_t> prefix) {
    prefix_ = std::move(prefix);
    cursor_ = 0;
    recs_.clear();
  }

  std::uint32_t choose(std::uint32_t count, ChoiceKind kind, std::uint64_t a,
                       std::uint64_t b) override {
    const std::uint32_t branch =
        cursor_ < prefix_.size() ? prefix_[cursor_] : 0;
    ++cursor_;
    recs_.push_back({kind, count, branch, a, b});
    return branch;
  }

  bool note_state(std::uint64_t fp) override {
    if (cursor_ < prefix_.size()) {
      ++prefix_states;
      if (!visited.contains(fp)) ++unvisited_prefix_states;
      return true;
    }
    return visited.insert(fp).second;
  }

  [[nodiscard]] const std::vector<ChoiceRec>& recs() const { return recs_; }

  std::unordered_set<std::uint64_t> visited;
  std::uint64_t prefix_states = 0;
  std::uint64_t unvisited_prefix_states = 0;

 private:
  std::vector<std::uint32_t> prefix_;
  std::size_t cursor_ = 0;
  std::vector<ChoiceRec> recs_;
};

ExploreResult audited_explore(const CheckOptions& opts,
                              AuditingOdometerSink& sink) {
  ExploreResult result;
  std::vector<std::uint32_t> prefix;
  for (;;) {
    sink.start_run(std::move(prefix));
    prefix.clear();
    CheckWorld world(opts, sink);
    const std::optional<Violation> violation = world.run();
    ++result.runs;
    if (world.pruned()) ++result.pruned_runs;
    EXPECT_FALSE(violation.has_value());
    if (violation) break;
    const std::vector<ChoiceRec>& recs = sink.recs();
    std::size_t keep = recs.size();
    while (keep > 0 && recs[keep - 1].chosen + 1 >= recs[keep - 1].count) {
      --keep;
    }
    if (keep == 0) break;
    for (std::size_t i = 0; i + 1 < keep; ++i) prefix.push_back(recs[i].chosen);
    prefix.push_back(recs[keep - 1].chosen + 1);
  }
  result.unique_states = sink.visited.size();
  return result;
}

// The explorer skips fingerprinting while a run replays its forced prefix.
// That is sound only because every such crossing reproduces a state the
// recording run already inserted: checked here on the reference world and
// on an unreduced one, whose explorations must also match explore()'s
// counts exactly.
TEST(ExplorerTest, ReplayedPrefixStatesAreAlreadyVisited) {
  CheckOptions unreduced = small_world();
  unreduced.max_crashes = 1;
  unreduced.max_drops = 1;
  unreduced.reduction = false;
  for (const CheckOptions& opts : {reference_world(), unreduced}) {
    AuditingOdometerSink sink;
    const ExploreResult audited = audited_explore(opts, sink);
    EXPECT_GT(sink.prefix_states, 0u);
    EXPECT_EQ(sink.unvisited_prefix_states, 0u);

    const ExploreResult skipped = explore(opts, ExploreLimits{});
    EXPECT_FALSE(skipped.budget_exhausted);
    EXPECT_EQ(audited.runs, skipped.runs);
    EXPECT_EQ(audited.pruned_runs, skipped.pruned_runs);
    EXPECT_EQ(audited.unique_states, skipped.unique_states);
  }
}

TEST(ExplorerTest, ReplayRejectsAnExhaustedChoiceTrace) {
  CheckOptions opts = small_world();
  opts.max_drops = 1;
  const ReplayOutcome outcome = replay(opts, {});
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(outcome.violation.has_value());
}

// ---------------------------------------------------------------------------
// Trace serialization

CheckTrace sample_trace() {
  CheckTrace trace;
  trace.options.nodes = 4;
  trace.options.deputies = 1;
  trace.options.epochs = 3;
  trace.options.max_crashes = 1;
  trace.options.max_recoveries = 1;
  trace.options.max_drops = 2;
  trace.options.checkpoint = true;
  trace.options.checkpoint_interval = 1;
  trace.options.reduction = false;
  trace.mutation = "skip_incarnation_bump";
  trace.choices = {{ChoiceKind::kFault, 3, 1, 0, 0},
                   {ChoiceKind::kDrop, 2, 0, 1, 2},
                   {ChoiceKind::kOrder, 4, 2, 7, 1}};
  Violation v;
  v.invariant = "I-V4";
  v.detail = "heartbeat from node 0 carries incarnation 0, world count is 1";
  v.epoch = 1;
  v.barrier = 2;
  trace.violation = v;
  trace.fault_events = {{false, NodeId(0), 300000}, {true, NodeId(0), 700000}};
  return trace;
}

TEST(CheckTraceTest, JsonlRoundTrip) {
  const CheckTrace trace = sample_trace();
  std::string error;
  const auto parsed = parse_jsonl(to_jsonl(trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(to_jsonl(*parsed), to_jsonl(trace));
  EXPECT_EQ(parsed->mutation, "skip_incarnation_bump");
  ASSERT_EQ(parsed->choices.size(), 3u);
  EXPECT_EQ(parsed->choices[1].kind, ChoiceKind::kDrop);
  ASSERT_TRUE(parsed->violation.has_value());
  EXPECT_EQ(parsed->violation->invariant, "I-V4");
  ASSERT_EQ(parsed->fault_events.size(), 2u);
  EXPECT_TRUE(parsed->fault_events[1].recover);
}

TEST(CheckTraceTest, FaultPlanTailIsSelfContained) {
  const std::string plan = fault_plan_jsonl(sample_trace());
  EXPECT_NE(plan.find("\"fault_plan\":1"), std::string::npos);
  EXPECT_NE(plan.find("\"fault\":\"crash\""), std::string::npos);
  EXPECT_NE(plan.find("\"fault\":\"recover\""), std::string::npos);
  EXPECT_EQ(plan.find("\"choice\""), std::string::npos);
}

TEST(CheckTraceTest, ParseRejectsMalformedTraces) {
  std::string error;
  // No header line.
  EXPECT_FALSE(
      parse_jsonl("{\"choice\":{\"kind\":\"drop\",\"count\":2,\"chosen\":0,"
                  "\"a\":0,\"b\":0}}\n",
                  &error)
          .has_value());
  const std::string header = to_jsonl(sample_trace()).substr(
      0, to_jsonl(sample_trace()).find('\n') + 1);
  // A chosen index at or past the count cannot have been recorded.
  EXPECT_FALSE(parse_jsonl(header +
                               "{\"choice\":{\"kind\":\"drop\",\"count\":2,"
                               "\"chosen\":2,\"a\":0,\"b\":0}}\n",
                           &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  // Unknown choice kinds and line shapes are errors, not skips.
  EXPECT_FALSE(parse_jsonl(header +
                               "{\"choice\":{\"kind\":\"warp\",\"count\":2,"
                               "\"chosen\":0,\"a\":0,\"b\":0}}\n",
                           &error)
                   .has_value());
  EXPECT_FALSE(parse_jsonl(header + "{\"bogus\":1}\n", &error).has_value());
}

/// The header line of sample_trace(), newline included.
std::string sample_header() {
  const std::string text = to_jsonl(sample_trace());
  return text.substr(0, text.find('\n') + 1);
}

TEST(CheckTraceTest, ParseRejectsNonIntegerFields) {
  const std::string header = sample_header();
  std::string error;
  for (const char* choice :
       {"{\"choice\":{\"kind\":\"drop\",\"count\":2.9,\"chosen\":1,"
        "\"a\":0,\"b\":0}}\n",
        "{\"choice\":{\"kind\":\"drop\",\"count\":2,\"chosen\":1.5,"
        "\"a\":0,\"b\":0}}\n",
        "{\"choice\":{\"kind\":\"drop\",\"count\":2,\"chosen\":1,"
        "\"a\":0,\"b\":1e3}}\n",
        "{\"choice\":{\"kind\":\"drop\",\"count\":2,\"chosen\":1,"
        "\"a\":-1,\"b\":0}}\n"}) {
    EXPECT_FALSE(parse_jsonl(header + choice, &error).has_value()) << choice;
  }
  EXPECT_FALSE(parse_jsonl(header +
                               "{\"violation\":{\"invariant\":\"I-V4\","
                               "\"epoch\":1E2,\"barrier\":0,"
                               "\"detail\":\"\"}}\n",
                           &error)
                   .has_value());
  EXPECT_FALSE(
      parse_jsonl(header + "{\"fault\":\"crash\",\"node\":0,\"at_us\":3.5}\n",
                  &error)
          .has_value());
}

TEST(CheckTraceTest, EscapedStringsRoundTrip) {
  const std::string text =
      sample_header() +
      "{\"violation\":{\"invariant\":\"I-V\\\\4\",\"epoch\":1,\"barrier\":2,"
      "\"detail\":\"say \\\"hi\\\"\\n\\tand \\u0001\"}}\n";
  std::string error;
  const auto parsed = parse_jsonl(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->violation.has_value());
  EXPECT_EQ(parsed->violation->invariant, "I-V\\4");
  EXPECT_EQ(parsed->violation->detail, "say \"hi\"\n\tand \x01");
  const auto again = parse_jsonl(to_jsonl(*parsed), &error);
  ASSERT_TRUE(again.has_value()) << error;
  ASSERT_TRUE(again->violation.has_value());
  EXPECT_EQ(again->violation->invariant, "I-V\\4");
  EXPECT_EQ(again->violation->detail, parsed->violation->detail);
  EXPECT_EQ(to_jsonl(*again), to_jsonl(*parsed));
}

}  // namespace
}  // namespace cfds::check
