// Fuzz target body for the Snapshot status-line parser, shared between the
// libFuzzer harness (fuzz_snapshot.cpp, CFDS_FUZZ builds) and the
// no-libFuzzer corpus smoke driver (fuzz_corpus_smoke.cpp, every build).
//
// Status lines arrive from outside the program (every cfds_serve endpoint's
// --status-out file, read by soak_harness), so Snapshot::parse must reject
// malformed text without UB or an exception. The property: for any line
// the parser accepts, the record survives its own round trip —
// parse(to_json(s)) == s — and to_json is a fixed point.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "fds/snapshot.h"

namespace cfds::fuzz {

inline int snapshot_one(const std::uint8_t* data, std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  const auto snapshot = Snapshot::parse(line);
  if (!snapshot.has_value()) return 0;
  const std::string written = snapshot->to_json();
  const auto again = Snapshot::parse(written);
  if (!again.has_value() || *again != *snapshot ||
      again->to_json() != written) {
    std::abort();  // accepted line does not survive its own round trip
  }
  return 0;
}

}  // namespace cfds::fuzz
