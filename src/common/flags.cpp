#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

namespace cfds {
namespace {

/// The whole of `text` as a T: from_chars takes no blank, no '+', and a '-'
/// only for signed T, and fails on a value outside T's range.
template <typename T>
bool read_value(const char* text, T* target) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [past, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || past != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *target = value;
  return true;
}

bool read_value(const char* text, std::string* target) {
  *target = text;
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

template <typename T>
void FlagSet::add_value(const std::string& name, T* target,
                        const std::string& help) {
  add(name, true, [target](const char* v) { return read_value(v, target); },
      help);
}

template void FlagSet::add_value(const std::string&, int*, const std::string&);
template void FlagSet::add_value(const std::string&, long*, const std::string&);
template void FlagSet::add_value(const std::string&, std::uint16_t*,
                                 const std::string&);
template void FlagSet::add_value(const std::string&, std::uint32_t*,
                                 const std::string&);
template void FlagSet::add_value(const std::string&, std::uint64_t*,
                                 const std::string&);
template void FlagSet::add_value(const std::string&, double*,
                                 const std::string&);
template void FlagSet::add_value(const std::string&, std::string*,
                                 const std::string&);

void FlagSet::add_millis(const std::string& name, SimTime* target,
                         const std::string& help) {
  add(name, true, [target](const char* v) {
    std::uint32_t ms = 0;
    if (!read_value(v, &ms)) return false;
    *target = SimTime::millis(ms);
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
    Flag* match = nullptr;
    for (Flag& flag : flags_) {
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
    match->given = true;
  }
  argc = out;
  argv[argc] = nullptr;
  return true;
}

void FlagSet::parse_or_exit(int& argc, char** argv, void (*more_help)()) {
  std::string error;
  if (!parse(argc, argv, &error)) usage_error(argv[0], error, 2);
  if (help_requested_) help_exit(argv[0], more_help);
}

void FlagSet::parse_all_or_exit(int argc, char** argv, int usage_status) {
  std::string error;
  if (!parse(argc, argv, &error)) usage_error(argv[0], error, usage_status);
  if (help_requested_) help_exit(argv[0], nullptr);
  if (argc > 1) {
    usage_error(argv[0], std::string("unknown argument ") + argv[1],
                usage_status);
  }
}

void FlagSet::help_exit(const char* argv0, void (*more_help)()) const {
  std::printf("usage: %s [options]\n%s", argv0, usage().c_str());
  std::fflush(stdout);
  if (more_help != nullptr) more_help();
  std::exit(0);
}

void FlagSet::usage_error(const char* argv0, const std::string& error,
                          int status) const {
  std::fprintf(stderr, "%s: %s\nusage: %s [options]\n%s", argv0,
               error.c_str(), argv0, usage().c_str());
  std::exit(status);
}

bool FlagSet::given(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return flag.given;
  }
  return false;
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

}  // namespace cfds
