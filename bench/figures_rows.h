// The bench_figures rows that run their own worlds rather than a runner
// sweep (bench_figures.cpp holds the row table and main). Each prints its
// tables to stdout, then registers its google-benchmark timings, which
// main runs after every selected row has printed.

#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "sim/scenario.h"

namespace cfds::bench {

void dch_row();           ///< figures_dch.cpp: Section 4.2's omitted study
void intercluster_row();  ///< figures_intercluster.cpp: Section 4.3
void baselines_row();     ///< figures_baselines.cpp: CFDS vs gossip vs SWIM
void scalability_row();   ///< figures_scalability.cpp: Section 3's claim
/// figures_system_completeness.cpp: the system-level measure Section 5
/// leaves open
void system_completeness_row();
/// figures_robustness.cpp: loss models and clock skew beyond Sections 2.2/5
void robustness_row();
/// figures_aggregation_sharing.cpp: Section 6's piggybacking proposal
void aggregation_sharing_row();
/// figures_sleep_management.cpp: Section 6's sleep-mode future work
void sleep_management_row();
void mobility_row();  ///< figures_mobility.cpp: Section 2.1's deferred motion
/// figures_detection_latency.cpp: the Section 2.1 latency bound and the
/// static-vs-adaptive Pareto gate (exits 1 when the gate fails)
void detection_latency_row();

/// Registers `fn(state, args...)` as the timing BM_Figure/<row>/<timing>.
template <class Fn, class... Args>
benchmark::internal::Benchmark* register_timing(const char* row,
                                                const std::string& timing,
                                                Fn fn, Args&&... args) {
  const std::string name = std::string("BM_Figure/") + row + "/" + timing;
  return benchmark::RegisterBenchmark(name.c_str(), fn,
                                      std::forward<Args>(args)...);
}

/// Registers BM_Figure/<row>/<timing>: one FDS execution
/// (Scenario::run_epochs(1)) per iteration of the world `config` builds,
/// with every node on a random-waypoint walk when `mobile`.
void register_epoch_timing(const char* row, const std::string& timing,
                           const ScenarioConfig& config, bool mobile = false);

}  // namespace cfds::bench
