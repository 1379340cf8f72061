#include "fds/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "common/jsonl.h"
#include "fds/agent.h"
#include "net/node.h"

namespace cfds {

using jsonl::find_bool;
using jsonl::find_number;
using jsonl::find_u32;
using jsonl::find_u32_list;
using jsonl::find_u64;
using jsonl::u32_list;

namespace {

[[nodiscard]] std::uint32_t raw(std::uint32_t nid) { return nid; }
[[nodiscard]] std::uint32_t raw(NodeId nid) { return nid.value(); }

/// Whether `list` (of NIDs, as integers or NodeIds) names `nid`.
template <typename List>
[[nodiscard]] bool contains(const List& list, std::uint32_t nid) {
  return std::any_of(list.begin(), list.end(),
                     [nid](const auto& x) { return raw(x) == nid; });
}

using Violations = std::vector<InvariantViolation>;

// fmt is always a literal at the call sites in this file; the variadic
// template hides that from -Wformat-nonliteral. The detail string is built
// only here, so a passing check costs no allocation.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-nonliteral"
void report(Violations& out, const char* invariant, const char* fmt,
            auto... args) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, fmt, args...);
  out.push_back({invariant, buffer});
}
#pragma GCC diagnostic pop

/// The view checks read a node's state through a source: a recorded
/// Snapshot, or an agent's live state as fill_snapshot would record it
/// (the model checker runs them at every crossing, where building the
/// Snapshot would cost more than the checks).
struct SnapshotSource {
  const Snapshot& s;
  [[nodiscard]] std::uint32_t node() const { return s.node; }
  [[nodiscard]] bool marked() const { return s.marked; }
  [[nodiscard]] bool affiliated() const { return s.affiliated; }
  [[nodiscard]] bool is_clusterhead() const { return s.is_clusterhead; }
  [[nodiscard]] std::uint32_t clusterhead() const { return s.clusterhead; }
  [[nodiscard]] const std::vector<std::uint32_t>& members() const {
    return s.members;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& deputies() const {
    return s.deputies;
  }
  [[nodiscard]] bool logs_failed(std::uint32_t nid) const {
    return contains(s.failed, nid);
  }
};

/// Live source; the roster accessors are called only when affiliated().
struct AgentSource {
  const FdsAgent& agent;
  const Node& own;
  [[nodiscard]] std::uint32_t node() const { return own.id().value(); }
  [[nodiscard]] bool marked() const { return own.marked(); }
  [[nodiscard]] bool affiliated() const { return agent.view().affiliated(); }
  [[nodiscard]] bool is_clusterhead() const {
    return agent.view().is_clusterhead();
  }
  [[nodiscard]] std::uint32_t clusterhead() const {
    return agent.view().cluster()->clusterhead.value();
  }
  [[nodiscard]] const std::vector<NodeId>& members() const {
    return agent.view().cluster()->members;
  }
  [[nodiscard]] const std::vector<NodeId>& deputies() const {
    return agent.view().cluster()->deputies;
  }
  [[nodiscard]] bool logs_failed(std::uint32_t nid) const {
    return agent.log().knows(NodeId{nid});
  }
};

template <typename Source>
void view_checks(const Source& s, Violations& out) {
  const std::uint32_t n = s.node();
  if (s.logs_failed(n)) {
    report(out, "I-V7", "node %u lists itself in its own failure log", n);
  }
  if (!s.affiliated()) {
    if (s.marked()) report(out, "I-V1", "node %u: marked but unaffiliated", n);
    return;
  }
  const std::uint32_t head = s.clusterhead();
  const auto& members = s.members();
  const auto& deputies = s.deputies();
  if (s.is_clusterhead() && !s.marked()) {
    report(out, "I-V1", "node %u: acting clusterhead but unmarked", n);
  }
  if (contains(members, head)) {
    report(out, "I-V1", "node %u: clusterhead listed as a member", n);
  }
  if (contains(deputies, head)) {
    report(out, "I-V1", "node %u: clusterhead listed as a deputy", n);
  }
  for (const auto& d : deputies) {
    if (!contains(members, raw(d))) {
      report(out, "I-V1", "node %u: deputy %u is not a member", n, raw(d));
    }
  }
  for (std::size_t x = 0; x < members.size(); ++x) {
    for (std::size_t y = x + 1; y < members.size(); ++y) {
      if (members[x] == members[y]) {
        report(out, "I-V1", "node %u: duplicate member %u", n,
               raw(members[x]));
      }
    }
  }
  if (head != n && !contains(members, n)) {
    report(out, "I-V1", "node %u: affiliated but missing from its own roster",
           n);
  }
  if (s.is_clusterhead()) {
    for (const auto& m : members) {
      if (s.logs_failed(raw(m))) {
        report(out, "I-V6",
               "node %u: expects member %u it also records as failed", n,
               raw(m));
      }
    }
  }
}

}  // namespace

std::string Snapshot::to_json() const {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  const auto u64 = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::string out;
  jsonl::append(
      out,
      "{\"node\":%u,\"alive\":%s,\"marked\":%s,\"affiliated\":%s,\"ch\":%s,"
      "\"left\":%s,\"cluster\":%u,\"clusterhead\":%u,\"epoch\":%llu,"
      "\"members\":%s,\"deputies\":%s,\"failed\":%s,"
      "\"updates_overheard\":%llu,\"admit_offers\":%llu,"
      "\"last_offer_epoch\":%llu,\"hb_sent\":%llu,\"unmarked_sent\":%llu,"
      "\"last_unmarked_epoch\":%llu,\"subscribers\":%s,\"reverts\":%s,"
      "\"last_revert_epoch\":%llu,\"last_revert_cause\":%llu,"
      "\"detect_node\":%s,\"detect_ms\":%s",
      node, flag(alive), flag(marked), flag(affiliated), flag(is_clusterhead),
      flag(left), cluster, clusterhead, u64(epoch), u32_list(members).c_str(),
      u32_list(deputies).c_str(), u32_list(failed).c_str(),
      u64(updates_overheard), u64(admit_offers), u64(last_offer_epoch),
      u64(hb_sent), u64(unmarked_sent), u64(last_unmarked_epoch),
      u32_list(subscribers).c_str(), u32_list(reverts).c_str(),
      u64(last_revert_epoch), u64(last_revert_cause),
      u32_list(detect_node).c_str(), u32_list(detect_ms).c_str());
  if (position) {
    jsonl::append(out, ",\"x\":%s,\"y\":%s",
                  jsonl::shortest(position->x).c_str(),
                  jsonl::shortest(position->y).c_str());
  }
  out += '}';
  return out;
}

std::optional<Snapshot> Snapshot::parse(const std::string& line) {
  Snapshot s;
  if (!find_u32(line, "node", &s.node) ||
      !find_bool(line, "alive", &s.alive) ||
      !find_bool(line, "marked", &s.marked) ||
      !find_bool(line, "affiliated", &s.affiliated) ||
      !find_bool(line, "ch", &s.is_clusterhead) ||
      !find_bool(line, "left", &s.left) ||
      !find_u32(line, "cluster", &s.cluster) ||
      !find_u32(line, "clusterhead", &s.clusterhead) ||
      !find_u64(line, "epoch", &s.epoch) ||
      !find_u32_list(line, "members", &s.members) ||
      !find_u32_list(line, "deputies", &s.deputies) ||
      !find_u32_list(line, "failed", &s.failed)) {
    return std::nullopt;
  }
  // Diagnostics are optional: a status line from an older endpoint still
  // parses, and an unreadable one stays at its default.
  (void)find_u64(line, "updates_overheard", &s.updates_overheard);
  (void)find_u64(line, "admit_offers", &s.admit_offers);
  (void)find_u64(line, "last_offer_epoch", &s.last_offer_epoch);
  (void)find_u64(line, "hb_sent", &s.hb_sent);
  (void)find_u64(line, "unmarked_sent", &s.unmarked_sent);
  (void)find_u64(line, "last_unmarked_epoch", &s.last_unmarked_epoch);
  (void)find_u32_list(line, "subscribers", &s.subscribers);
  (void)find_u32_list(line, "reverts", &s.reverts);
  (void)find_u64(line, "last_revert_epoch", &s.last_revert_epoch);
  (void)find_u64(line, "last_revert_cause", &s.last_revert_cause);
  (void)find_u32_list(line, "detect_node", &s.detect_node);
  (void)find_u32_list(line, "detect_ms", &s.detect_ms);
  Vec2 at;
  if (find_number(line, "x", &at.x)) {
    if (!find_number(line, "y", &at.y)) return std::nullopt;
    s.position = at;
  }
  return s;
}

void fill_snapshot(const FdsAgent& agent, const Node& node, Snapshot& out) {
  const MembershipView& view = agent.view();
  out.node = node.id().value();
  out.alive = node.alive();
  out.marked = node.marked();
  out.affiliated = view.affiliated();
  out.is_clusterhead = view.is_clusterhead();
  out.left = agent.has_left();
  out.cluster = Snapshot::kNone;
  out.clusterhead = Snapshot::kNone;
  out.epoch = agent.current_epoch();
  out.members.clear();
  out.deputies.clear();
  if (const ClusterRef cluster = view.cluster()) {
    out.cluster = cluster->id.value();
    out.clusterhead = cluster->clusterhead.value();
    for (NodeId m : cluster->members) out.members.push_back(m.value());
    for (NodeId d : cluster->deputies) out.deputies.push_back(d.value());
  }
  agent.log().known_failed(out.failed);
  out.hb_sent = agent.heartbeats_sent();
  out.unmarked_sent = agent.unmarked_heartbeats_sent();
  out.last_unmarked_epoch = agent.last_unmarked_sent_epoch();
  out.subscribers.clear();
  for (NodeId sub : agent.unmarked_heard()) {
    out.subscribers.push_back(sub.value());
  }
  out.reverts.clear();
  for (std::uint64_t count : agent.reverts()) {
    out.reverts.push_back(static_cast<std::uint32_t>(count));
  }
  out.last_revert_epoch = agent.last_revert_epoch();
  out.last_revert_cause = agent.last_revert_cause();
}

std::vector<InvariantViolation> check_view(const Snapshot& s) {
  Violations out;
  view_checks(SnapshotSource{s}, out);
  return out;
}

std::vector<InvariantViolation> check_view(const FdsAgent& agent,
                                           const Node& node) {
  Violations out;
  view_checks(AgentSource{agent, node}, out);
  return out;
}

std::vector<InvariantViolation> check_invariants(
    std::span<const Snapshot> snapshots, const Reach& reach) {
  Violations out;
  std::vector<const Snapshot*> by_node;
  by_node.reserve(snapshots.size());
  for (const Snapshot& s : snapshots) by_node.push_back(&s);
  std::stable_sort(by_node.begin(), by_node.end(),
                   [](const Snapshot* a, const Snapshot* b) {
                     return a->node < b->node;
                   });
  const auto find = [&by_node](std::uint32_t nid) -> const Snapshot* {
    const auto it = std::lower_bound(
        by_node.begin(), by_node.end(), nid,
        [](const Snapshot* s, std::uint32_t v) { return s->node < v; });
    return it != by_node.end() && (*it)->node == nid ? *it : nullptr;
  };
  const auto participating = [](const Snapshot* s) {
    return s != nullptr && s->alive && !s->left;
  };
  const auto dead = [&find](std::uint32_t nid) {
    const Snapshot* s = find(nid);
    return s != nullptr && !s->alive;
  };
  std::vector<std::uint32_t> headless;  // clusters reported under I1
  std::vector<const Snapshot*> heads;   // acting heads, ascending NID
  for (const Snapshot* s : by_node) {
    if (participating(s) && s->affiliated && s->is_clusterhead) {
      heads.push_back(s);
    }
  }

  for (std::size_t i = 0; i < by_node.size(); ++i) {
    const Snapshot& s = *by_node[i];
    const std::uint32_t n = s.node;
    if (i > 0 && by_node[i - 1]->node == n) {
      // Parsed statuses come from outside the program.
      report(out, "input", "duplicate snapshot for node %u", n);
      continue;
    }
    if (!participating(&s)) continue;
    view_checks(SnapshotSource{s}, out);
    const Snapshot* head = s.affiliated ? find(s.clusterhead) : nullptr;

    if (s.affiliated) {
      // I1: the cluster has an acting head; heads in contact have resolved
      // the conflict (a cluster split into disconnected components may keep
      // one head per component).
      bool headed = false;
      for (const Snapshot* h : heads) {
        if (h->cluster != s.cluster) continue;
        headed = true;
        if (s.is_clusterhead && h->node > n && reach(s, *h)) {
          report(out, "I1", "cluster %u has acting heads %u and %u in reach",
                 s.cluster, n, h->node);
        }
      }
      if (!headed && !contains(headless, s.cluster)) {
        headless.push_back(s.cluster);  // reported once, by its lowest NID
        report(out, "I1",
               "cluster %u referenced by node %u has no acting clusterhead",
               s.cluster, n);
      }
    }

    // I2: marked => affiliated; a follower's head is alive, acts for the
    // follower's cluster, and lists it.
    if (s.marked && !s.affiliated) {
      report(out, "I2", "node %u is marked but unaffiliated", n);
    }
    if (s.affiliated && !s.is_clusterhead) {
      if (head == nullptr || !head->alive) {
        report(out, "I2", "node %u follows dead clusterhead %u", n,
               s.clusterhead);
      } else if (!head->is_clusterhead || head->cluster != s.cluster) {
        report(out, "I2", "node %u follows %u, not acting head of cluster %u",
               n, s.clusterhead, s.cluster);
      } else if (!contains(head->members, n)) {
        report(out, "I2",
               "clusterhead %u does not list follower %u as a member",
               s.clusterhead, n);
      }
    }

    // I3: no zombies. An alive cluster-mate's heartbeat refutes its entry
    // and the erase propagates through the head's cumulative updates; only
    // a node beyond my alive head's reach is exempt.
    if (s.affiliated) {
      for (std::uint32_t f : s.failed) {
        const Snapshot* fs = find(f);
        if (!participating(fs) || !fs->affiliated || fs->cluster != s.cluster) {
          continue;
        }
        if (head != nullptr && head->alive && !reach(*fs, *head)) continue;
        report(out, "I3", "node %u's failure log names alive cluster-mate %u",
               n, f);
      }
    }

    // I4: F5 subscription succeeds wherever an acting head can hear it.
    if (!s.affiliated) {
      for (const Snapshot* h : heads) {
        if (reach(s, *h)) {
          report(out, "I4",
                 "node %u is unaffiliated with acting clusterhead %u in reach",
                 n, h->node);
          break;
        }
      }
    }

    // I5: dead nodes are purged from every view.
    if (s.affiliated) {
      if (head == nullptr || !head->alive) {
        report(out, "I5", "node %u's view keeps dead clusterhead %u", n,
               s.clusterhead);
      }
      for (std::uint32_t m : s.members) {
        if (dead(m)) {
          report(out, "I5", "node %u's view keeps dead member %u", n, m);
        }
      }
      for (std::uint32_t d : s.deputies) {
        if (dead(d)) {
          report(out, "I5", "node %u's view keeps dead deputy %u", n, d);
        }
      }
    }
  }
  return out;
}

}  // namespace cfds
