// Shared helpers for the benchmark binaries.
//
// bench_figures is the one driver for every DESIGN.md §2 artifact, one row
// each; bench_kernel, bench_megascale and bench_chaos are the performance
// and fault-injection harnesses. Each prints its tables first (analytic
// sweeps, Monte-Carlo cross-checks, full-stack studies), then runs its
// google-benchmark timings. Output is aligned plain text so the series can
// be diffed against EXPERIMENTS.md or piped into a plotting script.
//
// Every bench parses the uniform runner flags — --trials, --threads, --seed,
// --out, --no-wall-time, --no-calendar, --fault-plan, --label — on the one
// FlagSet (common/flags.h) before google-benchmark sees argv. Not every
// bench acts on every flag: a flag a bench has no use for is accepted and
// ignored. docs/RUNNER.md lists, per binary and per bench_figures row,
// which flags change the output.

#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "event/simulator.h"
#include "net/topology.h"
#include "runner/cli_args.h"
#include "runner/result_sink.h"
#include "runner/thread_pool.h"
#include "sim/scenario.h"

namespace cfds::bench {

/// Options parsed from the uniform flags (zero/empty = bench defaults).
[[nodiscard]] inline runner::RunnerOptions& options() {
  static runner::RunnerOptions instance;
  return instance;
}

/// Parses and strips the bench's own `flags` and the uniform flags from
/// argv. Call first in main, before benchmark::Initialize, which consumes
/// (and validates) the rest. --help/-h lists both sets of flags, then
/// `more_help` (google-benchmark's flags), and exits 0 before any work.
inline void parse_common_args(
    int& argc, char** argv, FlagSet flags = {},
    void (*more_help)() = &benchmark::PrintDefaultHelp) {
  runner::add_runner_flags(flags, options());
  flags.parse_or_exit(argc, argv, more_help);
  // Applied before any trial thread constructs a Simulator (the pool below
  // is built lazily, after parsing).
  if (options().no_calendar) {
    Simulator::set_default_queue_mode(QueueMode::kHeap);
  }
}

/// The bench's shared thread pool, sized by --threads (0 = hardware).
/// Constructed on first use so parse_common_args has already run.
[[nodiscard]] inline runner::ThreadPool& pool() {
  static runner::ThreadPool instance(unsigned(options().threads));
  return instance;
}

/// JSONL sink for --out, or null when no --out was given.
[[nodiscard]] inline std::unique_ptr<runner::JsonlResultSink> make_sink() {
  if (options().out.empty()) return nullptr;
  auto sink = std::make_unique<runner::JsonlResultSink>(
      options().out, !options().no_wall_time);
  if (!sink->ok()) {
    std::fprintf(stderr, "cannot open --out %s\n", options().out.c_str());
    std::exit(2);
  }
  return sink;
}

/// The tail of a bench main: prints the "-- timings --" divider, hands the
/// remaining argv to google-benchmark and runs the registered timings.
inline int run_timings(int& argc, char** argv) {
  std::printf("\n-- timings --\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

/// Prints a banner for one reproduced artifact.
inline void banner(const char* figure, const char* what) {
  constexpr char kRule[] =
      "================================================================";
  std::printf("\n%s\n%s — %s\n%s\n", kRule, figure, what, kRule);
}

/// Prints a table header: first column "p", then the given column names.
inline void table_header(const std::vector<std::string>& columns) {
  std::printf("%-6s", "p");
  for (const std::string& c : columns) std::printf("  %14s", c.c_str());
  std::printf("\n");
}

/// `text` right-aligned in `width` display columns. printf's %Ns pads by
/// bytes, so it pads a cell holding a multi-byte character such as the '±'
/// of mc_cell one column short.
[[nodiscard]] inline std::string right(const std::string& text,
                                       std::size_t width) {
  std::size_t columns = 0;
  for (unsigned char c : text) columns += (c & 0xC0) != 0x80;
  return std::string(width > columns ? width - columns : 0, ' ') + text;
}

/// Prints one table row under table_header: p, then the cells.
inline void table_row(double p, const std::vector<std::string>& cells) {
  std::printf("%-6.2f", p);
  for (const std::string& c : cells) {
    std::printf("  %s", right(c, 14).c_str());
  }
  std::printf("\n");
}

/// Formats a Monte-Carlo estimate with its 99% half-width.
[[nodiscard]] inline std::string mc_cell(double estimate, double ci) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.2e±%.0e", estimate, ci);
  return buffer;
}

/// Formats a plain value in scientific notation.
[[nodiscard]] inline std::string sci_cell(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.4e", value);
  return buffer;
}

[[nodiscard]] inline std::string fixed_cell(double value, int precision = 4) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  return buffer;
}

/// A Scenario world: `nodes` nodes uniform over a width x height field with
/// Bernoulli(loss_p) message loss. Callers set further knobs on the result.
[[nodiscard]] inline ScenarioConfig scenario_config(double width,
                                                    double height,
                                                    std::size_t nodes,
                                                    double loss_p,
                                                    std::uint64_t seed) {
  ScenarioConfig config;
  config.width = width;
  config.height = height;
  config.node_count = nodes;
  config.loss_p = loss_p;
  config.seed = seed;
  return config;
}

/// A bare Network (no clustering) of `nodes` nodes uniform over a width x
/// height field with Bernoulli(loss_p) loss; the network and the placement
/// are both seeded by `seed`. The flat-baseline worlds; a Scenario places
/// its nodes from the network's own stream instead.
[[nodiscard]] inline std::unique_ptr<Network> uniform_network(
    std::size_t nodes, double width, double height, double loss_p,
    std::uint64_t seed) {
  NetworkConfig config;
  config.seed = seed;
  auto network = std::make_unique<Network>(
      config, std::make_unique<BernoulliLoss>(loss_p));
  Rng placement(seed);
  network->add_nodes(uniform_rect(nodes, width, height, placement));
  return network;
}

/// Wall-clock milliseconds since `start` (reporting only: no simulated
/// behaviour may depend on it).
[[nodiscard]] inline double ms_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Field dimensions for n nodes at the paper's density (~50 nodes per
/// transmission disk): 500 nodes <-> 700 x 450 m, area scaled linearly.
inline void field_for(std::size_t n, double& width, double& height) {
  const double scale = std::sqrt(double(n) / 500.0);
  width = 700.0 * scale;
  height = 450.0 * scale;
}

/// A Scenario world of `nodes` nodes at the paper's density (field_for)
/// with Bernoulli(loss_p) message loss.
[[nodiscard]] inline ScenarioConfig paper_density_config(std::size_t nodes,
                                                         double loss_p,
                                                         std::uint64_t seed) {
  double width = 0.0, height = 0.0;
  field_for(nodes, width, height);
  return scenario_config(width, height, nodes, loss_p, seed);
}

/// Peak resident set size of this process in bytes (ru_maxrss is KiB on
/// Linux). Process-wide and monotone: concurrent trials share one peak.
[[nodiscard]] inline std::uint64_t peak_rss_bytes() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return std::uint64_t(usage.ru_maxrss) * 1024;
}

}  // namespace cfds::bench
