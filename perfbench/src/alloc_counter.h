// Live-heap accounting for the traced run.
//
// The benchmark binary replaces the global operator new/delete with thin
// wrappers over malloc/free. While counting is switched on they add each
// block's malloc_usable_size to a live-byte total (no headers are added, so
// the program's allocation pattern is unchanged); while it is off — always,
// in the untraced run — they cost one predictable branch. Per-layer heap
// figures are live-byte deltas across a layer's set-up call.

#pragma once

#include <cstdint>

namespace perfbench::alloc {

void set_counting(bool on);

/// Bytes currently live among blocks allocated while counting was on
/// (blocks freed while counting count down whenever they were allocated).
[[nodiscard]] std::int64_t live_bytes();
/// Highest live_bytes() since the last reset_peak().
[[nodiscard]] std::int64_t peak_bytes();
void reset_peak();
/// Allocations made while counting was on.
[[nodiscard]] std::uint64_t allocations();

}  // namespace perfbench::alloc
