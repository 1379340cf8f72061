// Per-node record of known failures.
//
// The completeness property is about this log: "every node failure will be
// reported to every operational node" means every operational node's log
// eventually contains the failed NID. Under the paper's fail-stop model
// entries are monotone — once a node is recorded failed it never leaves.
// The crash-recovery extension (FdsConfig::recovery_enabled) relaxes this:
// re-admission of a resurrected node erases its entry, and a recovered
// node's log is cleared outright (volatile state is lost in the crash).

#pragma once

#include <cstdint>
#include <map>
#include <vector>

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
    return entries_.emplace(failed, entry).second;
  }

  [[nodiscard]] bool knows(NodeId failed) const {
    return entries_.contains(failed);
  }

  /// Erases the record for `failed` (crash-recovery: the node was re-admitted
  /// alive, refuting the entry). Returns true if an entry was removed.
  bool erase(NodeId failed) { return entries_.erase(failed) > 0; }

  /// Drops every record (a recovering node restarts with an empty log).
  void clear() { entries_.clear(); }

  [[nodiscard]] const Entry* entry(NodeId failed) const {
    const auto it = entries_.find(failed);
    return it == entries_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// All known-failed NIDs in ascending order.
  [[nodiscard]] std::vector<NodeId> known_failed() const {
    std::vector<NodeId> out;
    out.reserve(entries_.size());
    for (const auto& [nid, entry] : entries_) {
      (void)entry;
      out.push_back(nid);
    }
    return out;
  }

  /// Appends the known-failed NIDs, ascending, to `out` as plain integers
  /// (the Snapshot form). Allocation-free while `out` has the capacity.
  void append_known_failed(std::vector<std::uint32_t>& out) const {
    for (const auto& [nid, entry] : entries_) {
      (void)entry;
      out.push_back(nid.value());
    }
  }

 private:
  // LINT-FINGERPRINT: members below must be covered (mixed or FP-EXEMPT'd)
  // in src/check/fingerprint.cpp — rule state-outside-fingerprint.
  std::map<NodeId, Entry> entries_;
};

// Fingerprint tripwire (src/check/fingerprint.h): a layout change means
// log state was added — mix it in src/check/fingerprint.cpp (or FP-EXEMPT
// it with a reason), then update the expected size.
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBCXX__) && \
    !defined(_GLIBCXX_DEBUG)
static_assert(sizeof(FailureLog) == 48,
              "FailureLog layout changed: update src/check/fingerprint.cpp, "
              "then this tripwire");
#endif

}  // namespace cfds
