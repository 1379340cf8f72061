// Megascale worlds (ROADMAP "Million-node worlds"): one process drives
// n ∈ {10^4, 10^5, 10^6} through centralized formation plus a ten-epoch
// FDS trial at the paper's density (paper_density(n): ~50 nodes per
// transmission disk) on a loss-free channel without the inter-cluster
// forwarder, and reports, per decade:
//
//   setup_ms         wall time of Scenario::setup(): placement, directory
//                    clustering and the FDS build
//   events_per_sec   simulator throughput over the timed epochs
//   bytes_per_node   peak RSS (getrusage ru_maxrss) divided by n
//
// Decades run in ascending order inside one process, so each decade's peak
// RSS is dominated by its own working set (the previous decade's world is
// destroyed first, and the next is 10x larger than anything freed). The
// numbers are honest totals: they include the delivery backlog the sweep
// scheduling creates (every node's round-1 broadcast is in flight at once
// — ~n x fanout calendar entries at the burst peak), not just per-node
// protocol state. docs/PERF.md discusses the budget.
//
// Steady-state epochs are allocation-free (tests/test_steady_state_alloc
// proves it at n=10^4), so throughput here measures the protocol and event
// kernel, not the allocator.
//
// Flags: the uniform runner flags plus
//   --max-nodes N   largest decade to run (default 1000000; CI smoke uses
//                   100000 to bound the job)
//   --epochs E      timed epochs per decade (default 10)
//
// BENCH_megascale.json holds the committed baseline rows; check_megascale.py
// gates fresh runs against them (floor on events/s, ceiling on bytes/node).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "runner/result_sink.h"
#include "sim/scenario.h"

namespace {

using namespace cfds;

struct Row {
  std::size_t n = 0;
  std::size_t clusters = 0;
  double setup_ms = 0.0;
  double events_per_sec = 0.0;
  double bytes_per_node = 0.0;
};

Row run_decade(std::size_t n, std::uint64_t epochs, std::uint64_t seed) {
  // FDS defaults: the simulator's hard-boundary path.
  ScenarioConfig config = paper_density(n);
  config.loss_p = 0.0;
  config.seed = seed;
  config.enable_forwarder = false;
  Scenario scenario(config);

  Row row;
  row.n = n;
  const auto t_setup = std::chrono::steady_clock::now();
  scenario.setup();
  row.setup_ms = bench::ms_since(t_setup);
  row.clusters = scenario.cluster_count();
  // Modest even-spread pre-size; the calendar queue's spare-vector pool
  // grows and recycles the burst-band buckets from the first epochs on.
  Simulator& sim = scenario.network().simulator();
  sim.reserve(std::size_t{1} << 19);

  const std::uint64_t events_before = sim.events_executed();
  const auto t_epochs = std::chrono::steady_clock::now();
  scenario.run_epochs(epochs);
  const double epochs_ms = bench::ms_since(t_epochs);
  const std::uint64_t events = sim.events_executed() - events_before;
  row.events_per_sec = double(events) / epochs_ms * 1000.0;
  row.bytes_per_node = double(bench::peak_rss_bytes()) / double(n);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t max_nodes = 1'000'000;
  std::uint64_t epochs = 10;
  cfds::FlagSet extra;
  extra.add_value("--max-nodes", &max_nodes, "largest decade to run");
  extra.add_value("--epochs", &epochs, "timed epochs per decade");
  // No google-benchmark timings here, so --help lists no further flags.
  cfds::bench::parse_common_args(argc, argv, std::move(extra),
                                 /*more_help=*/nullptr);

  const auto sink = cfds::bench::make_sink();
  const auto seed = cfds::bench::options().seed_or(7);

  cfds::bench::banner("Megascale", "setup + FDS epochs per decade");
  std::printf("\n%-10s %10s %14s %16s %16s\n", "nodes", "clusters",
              "setup ms", "events/sec", "bytes/node");

  for (std::size_t n : {std::size_t{10'000}, std::size_t{100'000},
                        std::size_t{1'000'000}}) {
    if (n > max_nodes) break;
    const Row row = run_decade(n, epochs, seed);
    std::printf("%-10zu %10zu %14.1f %16.0f %16.0f\n", row.n, row.clusters,
                row.setup_ms, row.events_per_sec, row.bytes_per_node);
    std::fflush(stdout);
    if (sink != nullptr) {
      for (const auto& [metric, value] :
           {std::pair<const char*, double>{"setup_ms", row.setup_ms},
            {"events_per_sec", row.events_per_sec},
            {"bytes_per_node", row.bytes_per_node}}) {
        cfds::runner::BenchRecord record;
        record.bench = "megascale";
        record.metric = metric;
        record.n = int(row.n);
        record.value = value;
        record.label = cfds::bench::options().label;
        sink->write(record);
      }
    }
  }

  std::printf(
      "\nReading: bytes/node includes the whole process — protocol state,\n"
      "the delivery backlog of the round sweep (~fanout calendar entries\n"
      "per node at the burst peak), and warm pools — measured at peak RSS.\n"
      "Decades ascend in one process so each peak reflects its own world.\n");
  return 0;
}
