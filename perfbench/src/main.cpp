// cfds_perfbench: runs one benchmark workload in this process and prints
// its metrics as one JSON line (the last line of standard output).
//
//   cfds_perfbench --workload paper_2k --seed 3 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the span trace to --trace-out when given). --toy shrinks
// every workload for the smoke test. perfbench/run.py is the usual entry
// point; it builds this binary and validates its output.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "cfds_perfbench: %s\n"
               "usage: cfds_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--toy] [--trace-out PATH]\n",
               message);
  std::exit(2);
}

/// Prints `s` as a JSON string literal.
void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", static_cast<unsigned>(c));
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--toy") == 0) {
      options.toy = true;
      continue;
    }
    if (value == nullptr) usage("missing value");
    ++i;
    char* end = nullptr;
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) usage("bad --seconds");
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.traced = value[0] == '1';
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      options.trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");

  perfbench::MetricSet metrics;
  perfbench::Checks checks;
  if (perfbench::is_world_workload(options.workload)) {
    perfbench::run_world_workload(options, metrics, checks);
  } else if (options.workload == "model_check") {
    perfbench::run_model_check(options, metrics, checks);
  } else {
    usage("unknown workload");
  }

  for (const perfbench::Metric& m : metrics.all()) {
    if (!std::isfinite(m.value)) checks.fail(m.name + " is not finite");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              checks.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  std::printf("\"failures\": [");
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    if (i > 0) std::printf(", ");
    print_json_string(checks.failures[i]);
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const perfbench::Metric& m : metrics.all()) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
