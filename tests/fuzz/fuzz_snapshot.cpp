// libFuzzer entry point for the Snapshot status-line parser. Built only
// under CFDS_FUZZ (requires Clang); see tests/fuzz/CMakeLists.txt.

#include "snapshot_target.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return cfds::fuzz::snapshot_one(data, size);
}
