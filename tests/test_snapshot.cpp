// Tests for the Snapshot record and the one invariant library
// (fds/snapshot.h): one hand-built deployment per invariant, each violating
// exactly that invariant once, the geometric reach carve-outs, the status
// JSON round trip, the status line's bytes and the reader's strictness.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "fds/snapshot.h"

namespace cfds {
namespace {

bool always(const Snapshot&, const Snapshot&) { return true; }

bool within_100m(const Snapshot& a, const Snapshot& b) {
  return distance(*a.position, *b.position) <= 100.0;
}

Snapshot head(std::uint32_t id, std::uint32_t cluster,
              std::vector<std::uint32_t> members,
              std::vector<std::uint32_t> deputies = {}) {
  Snapshot s;
  s.node = id;
  s.marked = true;
  s.affiliated = true;
  s.is_clusterhead = true;
  s.cluster = cluster;
  s.clusterhead = id;
  s.members = std::move(members);
  s.deputies = std::move(deputies);
  return s;
}

/// A follower whose view is a copy of its head's.
Snapshot follower(std::uint32_t id, const Snapshot& of) {
  Snapshot s = of;
  s.node = id;
  s.is_clusterhead = false;
  return s;
}

Snapshot stray(std::uint32_t id) {
  Snapshot s;
  s.node = id;
  return s;
}

/// Head 0 with members 1 and 2 (1 its deputy), both following it.
std::vector<Snapshot> clean_cluster() {
  const Snapshot h = head(0, 0, {1, 2}, {1});
  return {h, follower(1, h), follower(2, h)};
}

struct Case {
  const char* name;
  std::vector<Snapshot> snapshots;
  const char* invariant;  ///< the one violation expected; nullptr = clean
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"clean", clean_cluster(), nullptr});
  {
    auto s = clean_cluster();
    s.push_back(head(5, 0, {}));  // a second head of cluster 0
    out.push_back({"two_heads", s, "I1"});
  }
  {
    auto s = clean_cluster();
    s[0].left = true;  // the departed head no longer acts
    out.push_back({"headless_cluster", s, "I1"});
  }
  {
    auto s = clean_cluster();
    s[0].members = {1};  // the head dropped follower 2
    s[0].deputies = {1};
    out.push_back({"unlisted_follower", s, "I2"});
  }
  {
    auto s = clean_cluster();
    s[1].failed = {2};  // alive cluster-mate recorded as failed
    out.push_back({"zombie_entry", s, "I3"});
  }
  {
    auto s = clean_cluster();
    s.push_back(stray(3));  // unaffiliated next to an acting head
    out.push_back({"stray", s, "I4"});
  }
  {
    auto s = clean_cluster();
    s[0].members = {1, 2, 3};  // only the head still lists dead node 3
    Snapshot dead = stray(3);
    dead.alive = false;
    s.push_back(dead);
    out.push_back({"dead_member", s, "I5"});
  }
  {
    auto s = clean_cluster();
    s[1].members = {0, 1, 2};  // the head listed among its own members
    out.push_back({"head_as_member", s, "I-V1"});
  }
  {
    auto s = clean_cluster();
    s[2].left = true;  // a departed member the head still expects ...
    s[0].failed = {2};  // ... and also records as failed
    out.push_back({"roster_log_overlap", s, "I-V6"});
  }
  {
    Snapshot lone = stray(3);
    lone.failed = {3};
    out.push_back({"self_in_log", {lone}, "I-V7"});
  }
  return out;
}

TEST(CheckInvariants, EachInvariantViolatedOnce) {
  for (const Case& c : cases()) {
    const auto found = check_invariants(c.snapshots, always);
    if (c.invariant == nullptr) {
      EXPECT_TRUE(found.empty()) << c.name << ": " << found.front().detail;
      continue;
    }
    ASSERT_EQ(found.size(), 1u) << c.name;
    EXPECT_STREQ(found.front().invariant, c.invariant) << c.name;
  }
}

TEST(CheckInvariants, InputOrderDoesNotMatterAndReportsAscend) {
  auto s = clean_cluster();
  s[2].failed = {1};  // I3 at node 2
  s.push_back(stray(4));  // I4 at node 4
  std::reverse(s.begin(), s.end());
  const auto found = check_invariants(s, always);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_STREQ(found[0].invariant, "I3");
  EXPECT_STREQ(found[1].invariant, "I4");
}

TEST(CheckInvariants, DuplicateNodeIsAnInputViolation) {
  auto s = clean_cluster();
  s.push_back(s[2]);
  const auto found = check_invariants(s, always);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_STREQ(found.front().invariant, "input");
}

TEST(CheckInvariants, HeadsOutOfReachMayShareACluster) {
  Snapshot a = head(0, 0, {});
  Snapshot b = head(5, 0, {});
  a.position = Vec2{0.0, 0.0};
  b.position = Vec2{150.0, 0.0};
  EXPECT_TRUE(check_invariants(std::vector{a, b}, within_100m).empty());
  b.position = Vec2{90.0, 0.0};
  const auto found = check_invariants(std::vector{a, b}, within_100m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_STREQ(found.front().invariant, "I1");
}

TEST(CheckInvariants, StrayWithNoHeadInReachIsClean) {
  Snapshot h = head(0, 0, {});
  Snapshot lone = stray(3);
  h.position = Vec2{0.0, 0.0};
  lone.position = Vec2{250.0, 0.0};
  EXPECT_TRUE(check_invariants(std::vector{h, lone}, within_100m).empty());
  lone.position = Vec2{50.0, 0.0};
  const auto found = check_invariants(std::vector{h, lone}, within_100m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_STREQ(found.front().invariant, "I4");
}

TEST(CheckView, ReportsInCheckerOrder) {
  Snapshot s = stray(2);
  s.marked = true;
  s.failed = {2};
  const auto found = check_view(s);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_STREQ(found[0].invariant, "I-V7");
  EXPECT_STREQ(found[1].invariant, "I-V1");
  EXPECT_EQ(found[1].detail, "node 2: marked but unaffiliated");
}

TEST(SnapshotJson, RoundTripsWithAndWithoutPosition) {
  Snapshot s = follower(7, head(3, 3, {5, 7}, {5}));
  s.failed = {9};
  s.reverts = {0, 1, 0, 0, 2};
  s.detect_node = {9};
  s.detect_ms = {812};
  const std::string bare = s.to_json();
  EXPECT_EQ(bare.find("\"x\""), std::string::npos);
  EXPECT_EQ(Snapshot::parse(bare), s);

  s.position = Vec2{12.5, 1.0 / 3.0};
  const auto parsed = Snapshot::parse(s.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, s);
}

TEST(SnapshotJson, LineWithoutDiagnosticsParses) {
  const std::string line =
      "{\"node\":4,\"alive\":true,\"marked\":true,\"affiliated\":true,"
      "\"ch\":false,\"left\":false,\"cluster\":0,\"clusterhead\":0,"
      "\"epoch\":12,\"members\":[4],\"deputies\":[],\"failed\":[1,2]}";
  const auto parsed = Snapshot::parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->node, 4u);
  EXPECT_EQ(parsed->failed, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(parsed->hb_sent, 0u);
  EXPECT_FALSE(parsed->position.has_value());
  EXPECT_FALSE(Snapshot::parse("{\"node\":4}").has_value());
}

/// The status line of a follower with every list non-empty; the expected
/// bytes below were taken from the ostringstream writer it replaced.
Snapshot full_status() {
  Snapshot s = follower(7, head(3, 3, {5, 7}, {5}));
  s.epoch = 12345678901234ULL;
  s.failed = {9, 4294967295U};
  s.updates_overheard = 11;
  s.admit_offers = 2;
  s.last_offer_epoch = 40;
  s.hb_sent = 120;
  s.unmarked_sent = 3;
  s.last_unmarked_epoch = 2;
  s.subscribers = {12, 13};
  s.reverts = {0, 1, 0, 0, 2};
  s.last_revert_epoch = 39;
  s.last_revert_cause = 4;
  s.detect_node = {9};
  s.detect_ms = {812};
  return s;
}

TEST(SnapshotJson, StatusLineBytesArePinned) {
  const std::string line =
      "{\"node\":7,\"alive\":true,\"marked\":true,\"affiliated\":true,"
      "\"ch\":false,\"left\":false,\"cluster\":3,\"clusterhead\":3,"
      "\"epoch\":12345678901234,\"members\":[5,7],\"deputies\":[5],"
      "\"failed\":[9,4294967295],\"updates_overheard\":11,"
      "\"admit_offers\":2,\"last_offer_epoch\":40,\"hb_sent\":120,"
      "\"unmarked_sent\":3,\"last_unmarked_epoch\":2,"
      "\"subscribers\":[12,13],\"reverts\":[0,1,0,0,2],"
      "\"last_revert_epoch\":39,\"last_revert_cause\":4,"
      "\"detect_node\":[9],\"detect_ms\":[812]";
  Snapshot s = full_status();
  EXPECT_EQ(s.to_json(), line + "}");
  EXPECT_EQ(Snapshot::parse(line + "}"), s);

  s.position = Vec2{12.5, 1.0 / 3.0};
  EXPECT_EQ(s.to_json(), line + ",\"x\":12.5,\"y\":0.3333333333333333}");
  EXPECT_EQ(Snapshot::parse(s.to_json()), s);
}

/// `line` with its first `from` replaced by `to`.
std::string with(std::string line, const std::string& from,
                 const std::string& to) {
  const auto at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return line.replace(at, from.size(), to);
}

TEST(SnapshotJson, ListEntryAboveU32IsRejected) {
  const std::string line = full_status().to_json();
  EXPECT_TRUE(Snapshot::parse(line).has_value());
  EXPECT_FALSE(
      Snapshot::parse(with(line, "[9,4294967295]", "[9,4294967297]"))
          .has_value());
}

TEST(SnapshotJson, FractionalEpochIsRejected) {
  const std::string line = full_status().to_json();
  EXPECT_FALSE(Snapshot::parse(with(line, "\"epoch\":12345678901234",
                                    "\"epoch\":3.7"))
                   .has_value());
}

TEST(SnapshotJson, OverlongEpochIsRejectedWithoutThrowing) {
  const std::string line =
      with(full_status().to_json(), "\"epoch\":12345678901234",
           "\"epoch\":12345678901234567890123");
  std::optional<Snapshot> parsed = Snapshot{};
  EXPECT_NO_THROW(parsed = Snapshot::parse(line));
  EXPECT_FALSE(parsed.has_value());
}

TEST(SnapshotJson, MalformedOptionalListStaysEmpty) {
  const std::string line = with(full_status().to_json(), "[0,1,0,0,2]",
                                "[1,2,x]");
  const auto parsed = Snapshot::parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->reverts.empty());
  EXPECT_EQ(parsed->subscribers, (std::vector<std::uint32_t>{12, 13}));
}

}  // namespace
}  // namespace cfds
