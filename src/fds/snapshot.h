// One record of a node's protocol state, and the one library of cluster
// invariants checked over such records.
//
// A Snapshot is what every consumer reads: the chaos oracle snapshots each
// simulated node (with its position), a service endpoint writes one as its
// status JSON line, and the model checker snapshots its agents at every
// barrier. fill_snapshot() is the one builder from an FdsAgent.
//
// check_invariants() states the paper's per-cluster guarantees (§4.2) once,
// over a whole deployment; check_view() is its view-local part, run alone
// by the model checker (on the live agent, through the same statement of
// the checks). The table, with the reach rule of each check, is in
// docs/FAULTS.md:
//
//   I1  no cluster referenced by a participant lacks an acting head, and
//       no two acting heads of one cluster are in mutual reach
//   I2  a marked participant is affiliated; a non-head participant follows
//       an alive head acting for its cluster that lists it as a member
//   I3  a failure log names no participating cluster-mate, unless my head
//       is alive and the named node is out of its reach
//   I4  no participant is unaffiliated with an acting head in reach
//   I5  no view keeps a dead clusterhead, member or deputy
//   I-V7  no failure log names its own node
//   I-V1  view sanity: marked => affiliated, an acting head is marked,
//         the head is in neither its member nor its deputy list, deputies
//         are members, members are distinct, a follower is on its roster
//   I-V6  an acting head's roster and failure log are disjoint
//
// Participants are alive nodes that did not voluntarily leave. `reach(a, b)`
// says whether two nodes can hear each other: distance <= channel range in
// simulation, always true in service mode (one broadcast domain).

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.h"

namespace cfds {

class FdsAgent;
class Node;

/// One node's protocol state. Plain integers, not StrongIds: this is an
/// exchange format (the service status JSONL).
struct Snapshot {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFU;

  std::uint32_t node = 0;
  bool alive = true;
  bool marked = false;
  bool affiliated = false;
  bool is_clusterhead = false;
  bool left = false;
  /// View fields; meaningful only when affiliated.
  std::uint32_t cluster = kNone;
  std::uint32_t clusterhead = kNone;
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> members;   ///< the view's non-CH member list
  std::vector<std::uint32_t> deputies;
  std::vector<std::uint32_t> failed;    ///< failure-log contents, ascending
  /// Receive-side diagnostics (service layer): how many bare health updates
  /// this endpoint overheard, how many of them offered it admission, and
  /// the epoch of the newest such offer. Not invariant inputs — they exist
  /// so a soak post-mortem can tell a deaf endpoint from an ignored one.
  std::uint64_t updates_overheard = 0;
  std::uint64_t admit_offers = 0;
  std::uint64_t last_offer_epoch = 0;
  /// Send-side diagnostics: lifetime heartbeats sent, how many of them were
  /// unmarked (subscriptions), and the epoch of the newest subscription.
  std::uint64_t hb_sent = 0;
  std::uint64_t unmarked_sent = 0;
  std::uint64_t last_unmarked_epoch = 0;
  /// Subscriptions this endpoint has heard and not yet consumed at R-3 —
  /// on an acting head, who is currently asking to join.
  std::vector<std::uint32_t> subscribers;
  /// Lifetime counts of marked/affiliated-state reverts by cause, indexed
  /// by FdsAgent::RevertCause (missed-updates, fresh self news, stale self
  /// news, roster drop, rival head), plus when/why the newest one fired.
  std::vector<std::uint32_t> reverts;
  std::uint64_t last_revert_epoch = 0;
  std::uint64_t last_revert_cause = 0;
  /// Per-detection latency samples (service layer), index-aligned:
  /// detect_node[i] is a planned crash victim this endpoint judged failed,
  /// detect_ms[i] the latency from the planned crash instant to that
  /// verdict. Only deciders (CH/DCH at the moment of detection) carry
  /// samples; the soak harness reduces to the min per victim.
  std::vector<std::uint32_t> detect_node;
  std::vector<std::uint32_t> detect_ms;
  /// Where the node is, when the producer knows (simulation). Written as
  /// "x"/"y" only when set, so service status lines carry no such keys.
  std::optional<Vec2> position;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;

  /// One JSON object, no trailing newline.
  [[nodiscard]] std::string to_json() const;

  /// Parses a to_json() line. Returns nullopt on malformed input. The
  /// diagnostic keys and the position are optional; an unreadable
  /// diagnostic stays at its default (docs/SERVICE.md, "Reading a status
  /// line").
  [[nodiscard]] static std::optional<Snapshot> parse(const std::string& line);
};

/// Overwrites every protocol field of `out` from `agent` and `node` (the
/// agent's own node), reusing the vectors' capacity. The service-layer
/// diagnostics and the position are left as they are.
void fill_snapshot(const FdsAgent& agent, const Node& node, Snapshot& out);

/// One failed check. `invariant` names the table row ("I1".."I5",
/// "I-V1", "I-V6", "I-V7", or "input" for a duplicate NID).
struct InvariantViolation {
  const char* invariant;
  std::string detail;
};

/// Whether nodes `a` and `b` can hear each other.
using Reach = std::function<bool(const Snapshot& a, const Snapshot& b)>;

/// The view-local checks I-V7, I-V1, I-V6 on one snapshot, in that order.
[[nodiscard]] std::vector<InvariantViolation> check_view(const Snapshot& s);

/// The same checks on `agent`'s live state (`node` is its own node): what
/// check_view would report on fill_snapshot's record of it, without
/// building the record. Allocation-free when every check passes.
[[nodiscard]] std::vector<InvariantViolation> check_view(const FdsAgent& agent,
                                                         const Node& node);

/// I1-I5 over a whole deployment plus check_view on every participant.
/// `snapshots` need not be sorted; violations come in ascending-node order.
[[nodiscard]] std::vector<InvariantViolation> check_invariants(
    std::span<const Snapshot> snapshots, const Reach& reach);

}  // namespace cfds
