#include "runner/cli_args.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace cfds::runner {
namespace {

/// strto* wrapper demanding the whole token parse.
template <typename T, typename Parse>
bool parse_number(const char* text, T* target, Parse parse) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const auto value = parse(text, &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *target = T(value);
  return true;
}

}  // namespace

void FlagSet::add(std::string name, bool takes_value,
                  std::function<bool(const char*)> apply, std::string help) {
  flags_.push_back(
      Flag{std::move(name), takes_value, std::move(apply), std::move(help)});
}

void FlagSet::add_flag(const std::string& name, bool* target,
                       const std::string& help) {
  add(name, false, [target](const char*) {
    *target = true;
    return true;
  }, help);
}

void FlagSet::add_value(const std::string& name, long* target,
                        const std::string& help) {
  add(name, true, [target](const char* v) {
    return parse_number(v, target,
                        [](const char* s, char** e) { return std::strtol(s, e, 10); });
  }, help);
}

void FlagSet::add_value(const std::string& name, int* target,
                        const std::string& help) {
  add(name, true, [target](const char* v) {
    return parse_number(v, target,
                        [](const char* s, char** e) { return std::strtol(s, e, 10); });
  }, help);
}

void FlagSet::add_value(const std::string& name, long long* target,
                        const std::string& help) {
  add(name, true, [target](const char* v) {
    return parse_number(v, target, [](const char* s, char** e) {
      return std::strtoll(s, e, 10);
    });
  }, help);
}

void FlagSet::add_value(const std::string& name, std::uint64_t* target,
                        const std::string& help) {
  add(name, true, [target](const char* v) {
    return parse_number(v, target, [](const char* s, char** e) {
      return std::strtoull(s, e, 10);
    });
  }, help);
}

void FlagSet::add_value(const std::string& name, double* target,
                        const std::string& help) {
  add(name, true, [target](const char* v) {
    return parse_number(v, target,
                        [](const char* s, char** e) { return std::strtod(s, e); });
  }, help);
}

void FlagSet::add_value(const std::string& name, std::string* target,
                        const std::string& help) {
  add(name, true, [target](const char* v) {
    *target = v;
    return true;
  }, help);
}

bool FlagSet::parse(int& argc, char** argv, std::string* error) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      help_requested_ = true;
      continue;
    }
    const Flag* match = nullptr;
    for (const Flag& flag : flags_) {
      if (flag.name == argv[i]) {
        match = &flag;
        break;
      }
    }
    if (match == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    const char* value = nullptr;
    if (match->takes_value) {
      if (i + 1 >= argc) {
        if (error != nullptr) *error = match->name + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    if (!match->apply(value)) {
      if (error != nullptr) {
        *error = "bad value for " + match->name + ": " + value;
      }
      return false;
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return true;
}

void FlagSet::parse_or_exit(int& argc, char** argv, void (*more_help)()) {
  std::string error;
  if (!parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s: %s\nusage: %s [options]\n%s", argv[0],
                 error.c_str(), argv[0], usage().c_str());
    std::exit(2);
  }
  if (help_requested_) {
    std::printf("usage: %s [options]\n%s", argv[0], usage().c_str());
    std::fflush(stdout);
    if (more_help != nullptr) more_help();
    std::exit(0);
  }
}

std::string FlagSet::usage() const {
  std::string text;
  for (const Flag& flag : flags_) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-24s %s\n",
                  (flag.name + (flag.takes_value ? " V" : "")).c_str(),
                  flag.help.c_str());
    text += line;
  }
  return text;
}

void add_runner_flags(FlagSet& flags, RunnerOptions& options) {
  flags.add_value("--threads", &options.threads,
                  "worker threads (0 = one per hardware thread)");
  flags.add_value("--trials", &options.trials,
                  "trials per grid point (0 = per-experiment default)");
  flags.add_value("--seed", &options.seed,
                  "base RNG seed (-1 = per-experiment default)");
  flags.add_value("--out", &options.out,
                  "JSONL results path (\"-\" = stdout)");
  flags.add_flag("--no-wall-time", &options.no_wall_time,
                 "omit wall_ms from JSONL (bit-reproducible output)");
  flags.add_flag("--no-calendar", &options.no_calendar,
                 "use the binary-heap event queue (calendar-queue oracle)");
  flags.add_value("--fault-plan", &options.fault_plan,
                  "FaultPlan JSONL to inject/replay (docs/FAULTS.md)");
  flags.add_value("--label", &options.label,
                  "label stamped on BenchRecord JSONL rows (baselines)");
}

}  // namespace cfds::runner
