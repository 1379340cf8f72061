// Fuzz target body for the cfds_check trace parser, shared between the
// libFuzzer harness (fuzz_check_trace.cpp, CFDS_FUZZ builds) and the
// no-libFuzzer corpus smoke driver (fuzz_corpus_smoke.cpp, every build).
//
// Traces arrive from outside the program (`cfds_check --replay`), so
// parse_jsonl must reject malformed text without UB. The property: for any
// trace the parser accepts, its serialization is a fixed point —
// to_jsonl, parse, to_jsonl gives the same text — so a replayed
// counterexample re-serializes byte for byte.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "check/trace.h"

namespace cfds::fuzz {

inline int check_trace_one(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::string error;
  const auto trace = check::parse_jsonl(text, &error);
  if (!trace.has_value()) return 0;
  const std::string written = check::to_jsonl(*trace);
  const auto again = check::parse_jsonl(written, &error);
  if (!again.has_value() || check::to_jsonl(*again) != written) {
    std::abort();  // accepted trace does not survive its own round trip
  }
  return 0;
}

}  // namespace cfds::fuzz
