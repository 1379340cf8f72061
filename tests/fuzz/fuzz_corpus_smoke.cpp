// Corpus smoke driver: feeds every committed corpus file through the fuzz
// target bodies without libFuzzer, so the round-trip properties and the
// corpus itself stay exercised on toolchains that cannot build the real
// harnesses (the default GCC build). Runs in ctest as `fuzz_corpus_smoke`.
//
// Usage: fuzz_corpus_smoke <corpus-dir>...
// The directory's name picks the target, as each libFuzzer harness takes
// its own corpus directory:
//   wire/         -> wire codec target
//   fault_plan/   -> FaultPlan parser target
//   check_trace/  -> cfds_check trace parser target
//   snapshot/     -> Snapshot status-line parser target
// Exits nonzero when a directory is missing, has an unknown name, or holds
// no files — an empty corpus would make the smoke test vacuous.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check_trace_target.h"
#include "fault_plan_target.h"
#include "snapshot_target.h"
#include "wire_target.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>...\n", argv[0]);
    return 2;
  }
  const struct {
    const char* name;
    int (*target)(const std::uint8_t*, std::size_t);
  } targets[] = {{"wire", cfds::fuzz::wire_one},
                 {"fault_plan", cfds::fuzz::fault_plan_one},
                 {"check_trace", cfds::fuzz::check_trace_one},
                 {"snapshot", cfds::fuzz::snapshot_one}};
  for (int a = 1; a < argc; ++a) {
    fs::path dir(argv[a]);
    if (!dir.has_filename()) dir = dir.parent_path();  // trailing slash
    if (!fs::is_directory(dir)) {
      std::fprintf(stderr, "fuzz_corpus_smoke: not a directory: %s\n",
                   argv[a]);
      return 1;
    }
    const std::string name = dir.filename().string();
    int (*target)(const std::uint8_t*, std::size_t) = nullptr;
    for (const auto& t : targets) {
      if (name == t.name) target = t.target;
    }
    if (target == nullptr) {
      std::fprintf(stderr, "fuzz_corpus_smoke: no target for corpus %s\n",
                   argv[a]);
      return 1;
    }
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    if (files.empty()) {
      std::fprintf(stderr, "fuzz_corpus_smoke: no corpus files under %s\n",
                   argv[a]);
      return 1;
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      std::ifstream in(file, std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string bytes = buffer.str();
      target(reinterpret_cast<const std::uint8_t*>(bytes.data()),
             bytes.size());
    }
    std::printf("fuzz_corpus_smoke: %s ok (%zu files)\n", name.c_str(),
                files.size());
  }
  return 0;
}
