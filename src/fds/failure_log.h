// Per-node record of known failures.
//
// The completeness property is about this log: "every node failure will be
// reported to every operational node" means every operational node's log
// eventually contains the failed NID. Under the paper's fail-stop model
// entries are monotone — once a node is recorded failed it never leaves.
// The crash-recovery extension (FdsConfig::recovery_enabled) relaxes this:
// re-admission of a resurrected node erases its entry, and a recovered
// node's log is cleared outright (volatile state is lost in the crash).
//
// Every health update carries its author's whole log (`all_failed`), so a
// receiver re-learns tens of known NIDs per frame. The log is therefore one
// sorted vector: re-recording a known NID is a binary search that never
// touches the heap.

#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/flat.h"
#include "common/ids.h"
#include "common/sim_time.h"

namespace cfds {

class FailureLog {
 public:
  struct Entry {
    SimTime learned_at;
    std::uint64_t epoch = 0;
    NodeId reported_by;  ///< the CH/DCH whose update carried the news
  };

  /// Records `failed`; keeps the earliest entry on duplicates.
  /// Returns true if the NID was new to this log.
  bool record(NodeId failed, Entry entry) {
    return entries_.insert(failed, entry);
  }

  /// Records every NID of `failed` except `self` (a node never logs its own
  /// failure) and appends each NID new to this log to `learned`, in input
  /// order. A NID already known costs one search and no allocation.
  void record(const std::vector<NodeId>& failed, Entry entry, NodeId self,
              std::vector<NodeId>& learned) {
    for (NodeId f : failed) {
      if (f != self && record(f, entry)) learned.push_back(f);
    }
  }

  [[nodiscard]] bool knows(NodeId failed) const {
    return entries_.contains(failed);
  }

  /// Erases the record for `failed` (crash-recovery: the node was re-admitted
  /// alive, refuting the entry). Returns true if an entry was removed.
  bool erase(NodeId failed) { return entries_.erase(failed); }

  /// Erases every record `listed` does not name (crash-recovery: the acting
  /// CH's cumulative list refutes the rest). `listed` may be in any order.
  void retain(const std::vector<NodeId>& listed) {
    entries_.erase_if([&](const auto& e) {
      return std::find(listed.begin(), listed.end(), e.first) == listed.end();
    });
  }

  /// Drops every record (a recovering node restarts with an empty log).
  void clear() { entries_.clear(); }

  [[nodiscard]] const Entry* entry(NodeId failed) const {
    const auto it = entries_.find(failed);
    return it == entries_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Overwrites `out` with the known-failed NIDs in ascending order, as
  /// NodeIds or as plain integers (the Snapshot form). Reuses out's buffer:
  /// allocation-free while it has the capacity.
  template <typename T>
  void known_failed(std::vector<T>& out) const {
    out.clear();
    for (const auto& [nid, entry] : entries_) {
      if constexpr (std::is_same_v<T, NodeId>) {
        out.push_back(nid);
      } else {
        out.push_back(nid.value());
      }
    }
  }

 private:
  // LINT-FINGERPRINT: members below must be covered (mixed or FP-EXEMPT'd)
  // in src/check/fingerprint.cpp — rule state-outside-fingerprint.
  FlatMap<NodeId, Entry> entries_;
};

// Fingerprint tripwire (src/check/fingerprint.h): a layout change means
// log state was added — mix it in src/check/fingerprint.cpp (or FP-EXEMPT
// it with a reason), then update the expected size.
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBCXX__) && \
    !defined(_GLIBCXX_DEBUG)
static_assert(sizeof(FailureLog) == 24,
              "FailureLog layout changed: update src/check/fingerprint.cpp, "
              "then this tripwire");
#endif

}  // namespace cfds
