// The bench_figures rows that run their own worlds rather than a runner
// sweep (bench_figures.cpp holds the row table and main). Each prints its
// tables to stdout, then registers its google-benchmark timings, which
// main runs after every selected row has printed.

#pragma once

namespace cfds::bench {

void dch_row();           ///< figures_dch.cpp: Section 4.2's omitted study
void intercluster_row();  ///< figures_intercluster.cpp: Section 4.3
void baselines_row();     ///< figures_baselines.cpp: CFDS vs gossip vs SWIM

}  // namespace cfds::bench
