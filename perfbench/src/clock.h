// Host clocks for the benchmark.
//
// Host cost is CPU time of the one simulation thread
// (CLOCK_THREAD_CPUTIME_ID): the simulator is single-threaded and does no
// I/O in its timed phases, so thread CPU time is what a user waits for,
// minus the time the machine spends elsewhere (other tenants, hypervisor
// steal). A read is a system call (a few hundred ns), so it is taken only at
// phase and epoch boundaries.
//
// Trace spans use the monotonic clock instead, which the vDSO answers
// without a system call and which is cheap enough to read per frame.

#pragma once

#include <sys/resource.h>
#include <time.h>

#include <cstdint>

namespace perfbench {

/// CPU time consumed by the calling thread, in nanoseconds.
[[nodiscard]] inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Monotonic wall time, in nanoseconds (span timestamps).
[[nodiscard]] inline std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set size of the process, in bytes (ru_maxrss is KiB).
[[nodiscard]] inline std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return std::uint64_t(usage.ru_maxrss) * 1024;
}

}  // namespace perfbench
