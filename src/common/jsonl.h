// Field reader and writer for the project's flat JSONL records (FaultPlan
// files, cfds_check traces).
//
// Every record is one line of `"key":value` pairs written by this program.
// The reader finds `"key":` by substring search and parses the value that
// follows; it does not build a document tree. It is strict where leniency
// would silently change a replayed run: integers reject a fraction or an
// exponent ("1.5", "1e3"), unsigned fields reject a sign, u32 fields are
// range-checked, numbers reject NaN and infinity, and strings unescape
// exactly what append_escaped writes.
// A reader that fails leaves its output untouched.

#pragma once

#include <cstdint>
#include <string>

namespace cfds::jsonl {

/// Appends printf-formatted text to `out`.
void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Appends `s` as the body of a JSON string: quote, backslash and control
/// characters escaped.
void append_escaped(std::string& out, const std::string& s);

/// The finite number after `"key":` (strtod syntax; no NaN or infinity).
bool find_number(const std::string& line, const char* key, double* out);

/// The integer after `"key":`, exactly: no detour through double, so 64-bit
/// values survive.
bool find_i64(const std::string& line, const char* key, std::int64_t* out);
bool find_u64(const std::string& line, const char* key, std::uint64_t* out);
bool find_u32(const std::string& line, const char* key, std::uint32_t* out);

/// The unescaped string value of `"key":"..."`.
bool find_string(const std::string& line, const char* key, std::string* out);

}  // namespace cfds::jsonl
