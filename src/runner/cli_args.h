// Minimal shared command-line parsing for the experiment tooling.
//
// FlagSet is a registry of typed "--name value" (and presence-only) flags.
// parse() consumes the flags it knows from argv — compacting the array in
// place — and leaves everything else untouched, so it composes with other
// parsers: the benches run it first and hand the remainder to
// benchmark::Initialize, while cfds_cli registers every flag it has and
// treats leftovers as an error.
//
// Every FlagSet answers --help / -h: parse() consumes it and sets
// help_requested(), and parse_or_exit() then prints the usage and exits 0
// before the caller does any work.
//
// RunnerOptions bundles the four flags every experiment entry point shares
// (--threads, --trials, --seed, --out) plus --no-wall-time for
// bit-reproducible JSONL.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cfds::runner {

class FlagSet {
 public:
  /// Presence flag: "--name" sets *target to true.
  void add_flag(const std::string& name, bool* target, const std::string& help);

  /// Valued flags: "--name V" parses V into *target. Parse failure (bad
  /// number, missing value) fails the whole parse() call.
  void add_value(const std::string& name, long* target, const std::string& help);
  void add_value(const std::string& name, long long* target,
                 const std::string& help);
  void add_value(const std::string& name, int* target, const std::string& help);
  void add_value(const std::string& name, std::uint64_t* target,
                 const std::string& help);
  void add_value(const std::string& name, double* target,
                 const std::string& help);
  void add_value(const std::string& name, std::string* target,
                 const std::string& help);

  /// Consumes recognized flags from argv (argv[0] is never touched) and
  /// shifts the survivors down; argc is updated. Returns false and fills
  /// *error on a malformed or missing value. Unrecognized arguments are not
  /// an error — they stay in argv for the next parser. --help and -h are
  /// always recognized and set help_requested().
  [[nodiscard]] bool parse(int& argc, char** argv, std::string* error);

  /// parse() that prints the error plus usage() to stderr and exits(2). On
  /// --help/-h it prints usage() to stdout, then calls `more_help` (if set)
  /// for the flags of the next parser, and exits(0).
  void parse_or_exit(int& argc, char** argv, void (*more_help)() = nullptr);

  /// True once parse() has consumed --help or -h.
  [[nodiscard]] bool help_requested() const { return help_requested_; }

  /// One "  --name  help" line per registered flag.
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    std::function<bool(const char*)> apply;
    std::string help;
  };

  void add(std::string name, bool takes_value,
           std::function<bool(const char*)> apply, std::string help);

  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

/// The uniform experiment flags. `trials` and `threads` keep 0 as "caller
/// decides" (benches fall back to their historical per-figure budgets;
/// threads 0 means one per hardware thread). `seed` keeps -1 as "caller
/// decides" so entry points can preserve their historical default seeds.
struct RunnerOptions {
  int threads = 0;
  long trials = 0;
  std::int64_t seed = -1;
  std::string out;  ///< JSONL path; empty = no sink, "-" = stdout
  bool no_wall_time = false;
  /// Run every simulator on the binary-heap event queue instead of the
  /// calendar queue (--no-calendar). The heap is the property-test oracle;
  /// the flag exists so any experiment can be replayed on it — output must
  /// be byte-identical (tools/check_perf.sh diffs the two).
  bool no_calendar = false;
  std::string fault_plan;  ///< FaultPlan JSONL to replay (empty = none)
  /// Label stamped on every BenchRecord this run writes (--label). The
  /// committed trajectory files (BENCH_kernel.json, BENCH_megascale.json)
  /// key rows by label — "pre_pr4"/"post_pr4", "post_pr5", ... — so a
  /// baseline refresh is one flag instead of a sed pass over the JSONL.
  std::string label = "current";

  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed >= 0 ? std::uint64_t(seed) : fallback;
  }
  [[nodiscard]] long trials_or(long fallback) const {
    return trials > 0 ? trials : fallback;
  }
};

/// Registers --threads/--trials/--seed/--out/--no-wall-time on the set.
void add_runner_flags(FlagSet& flags, RunnerOptions& options);

}  // namespace cfds::runner
