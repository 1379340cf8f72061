// libFuzzer entry point for the cfds_check trace parser. Built only under
// CFDS_FUZZ (requires Clang); see tests/fuzz/CMakeLists.txt.

#include "check_trace_target.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return cfds::fuzz::check_trace_one(data, size);
}
