// Command-line flags for the repo's tools and benches.
//
// FlagSet is a registry of typed "--name value" (and presence-only) flags.
// parse() consumes the flags it knows from argv — compacting the array in
// place — and leaves everything else untouched, so it composes with other
// parsers: the benches run it first and hand the remainder to
// benchmark::Initialize. A tool that owns its whole command line calls
// parse_all_or_exit(), which also rejects what is left over.
//
// Each number is read with std::from_chars into its exact target type: a
// value outside the type's range, a sign on an unsigned target, trailing
// characters and a non-finite double all fail the parse.
//
// Every FlagSet answers --help / -h: parse() consumes it and sets
// help_requested(), and the *_or_exit() entry points then print usage() and
// exit 0 before the caller does any work.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace cfds {

class FlagSet {
 public:
  /// Presence flag: "--name" sets *target to true.
  void add_flag(const std::string& name, bool* target, const std::string& help);

  /// Valued flags: "--name V" parses V into *target, which is an int, a
  /// long, a std::uint16_t, std::uint32_t or std::uint64_t, a double or a
  /// std::string. Parse failure (bad number, missing value) fails the whole
  /// parse() call.
  template <typename T>
  void add_value(const std::string& name, T* target, const std::string& help);
  /// "--name MS": whole milliseconds, read as a std::uint32_t.
  void add_millis(const std::string& name, SimTime* target,
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

  /// parse_or_exit() for a binary with no further parser: an argument left
  /// over is an error too, and every error exits with `usage_status`, the
  /// tool's documented usage-error code.
  void parse_all_or_exit(int argc, char** argv, int usage_status);

  /// Prints "argv0: error" and the usage to stderr and exits with `status`;
  /// for the checks a tool makes after the parse (required flags, enums).
  [[noreturn]] void usage_error(const char* argv0, const std::string& error,
                                int status) const;

  /// True once parse() has consumed --help or -h.
  [[nodiscard]] bool help_requested() const { return help_requested_; }

  /// True once parse() has consumed the flag `name`.
  [[nodiscard]] bool given(const std::string& name) const;

  /// One "  --name  help" line per registered flag.
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    std::function<bool(const char*)> apply;
    std::string help;
    bool given = false;
  };

  void add(std::string name, bool takes_value,
           std::function<bool(const char*)> apply, std::string help);
  /// Prints usage() to stdout, calls `more_help` (if set) and exits 0.
  [[noreturn]] void help_exit(const char* argv0, void (*more_help)()) const;

  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace cfds
