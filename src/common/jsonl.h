// Field reader and writer for every flat JSONL record the program writes
// or reads: FaultPlan files (fault/fault_plan.h), cfds_check traces
// (check/trace.h), node Snapshots (fds/snapshot.h: service status lines,
// chaos failure dumps), runner PointRecord/BenchRecord rows
// (runner/result_sink.h) and chaos trial summaries (fault/chaos.h).
//
// Every record is one line of `"key":value` pairs written by this program.
// The reader finds `"key":` by substring search and parses the value that
// follows; it does not build a document tree. It is strict where leniency
// would silently change a replayed run: integers reject a fraction or an
// exponent ("1.5", "1e3"), unsigned fields reject a sign, u32 fields and
// u32 list entries are range-checked, numbers reject NaN and infinity, and
// strings unescape exactly what append_escaped writes.
// A reader that fails leaves its output untouched.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cfds::jsonl {

/// Appends printf-formatted text to `out`.
void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Appends `s` as the body of a JSON string: quote, backslash and control
/// characters escaped.
void append_escaped(std::string& out, const std::string& s);

/// `[v0,v1,...]`.
std::string u32_list(const std::vector<std::uint32_t>& v);

/// The shortest text that reads back as exactly `value`.
std::string shortest(double value);

/// The finite number after `"key":` (strtod syntax; no NaN or infinity).
bool find_number(const std::string& line, const char* key, double* out);

/// The integer after `"key":`, exactly: no detour through double, so 64-bit
/// values survive.
bool find_i64(const std::string& line, const char* key, std::int64_t* out);
bool find_u64(const std::string& line, const char* key, std::uint64_t* out);
bool find_u32(const std::string& line, const char* key, std::uint32_t* out);

/// `true` or `false` after `"key":`.
bool find_bool(const std::string& line, const char* key, bool* out);

/// The list `[v0,v1,...]` after `"key":`; every entry obeys find_u32's
/// rules. An empty list is `[]`.
bool find_u32_list(const std::string& line, const char* key,
                   std::vector<std::uint32_t>* out);

/// The unescaped string value of `"key":"..."`.
bool find_string(const std::string& line, const char* key, std::string* out);

}  // namespace cfds::jsonl
