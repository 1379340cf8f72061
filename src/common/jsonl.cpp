#include "common/jsonl.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace cfds::jsonl {

namespace {

/// The first non-blank character of the value after `"key":`, or nullptr
/// when the key is absent.
const char* find_value(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return nullptr;
  const char* start = line.c_str() + pos + needle.size();
  while (std::isspace(static_cast<unsigned char>(*start))) ++start;
  return start;
}

/// An integer must stop at a delimiter, not at a fraction or exponent
/// marker ("1.5" or "1e3" masquerading as 1).
bool integer_end(const char* start, const char* end) {
  return end != start && *end != '.' && *end != 'e' && *end != 'E';
}

}  // namespace

void append(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    // vsnprintf writes a terminating NUL: format into one spare byte, then
    // drop it.
    const std::size_t at = out.size();
    out.resize(at + std::size_t(n) + 1);
    std::vsnprintf(out.data() + at, std::size_t(n) + 1, fmt, args);
    out.resize(at + std::size_t(n));
  }
  va_end(args);
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append(out, "\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
}

bool find_number(const std::string& line, const char* key, double* out) {
  const char* start = find_value(line, key);
  if (start == nullptr) return false;
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  // JSON has no NaN or infinity; a NaN field would also break the plan's
  // equality after a round trip.
  if (end == start || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool find_i64(const std::string& line, const char* key, std::int64_t* out) {
  const char* start = find_value(line, key);
  if (start == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(start, &end, 10);
  if (errno == ERANGE || !integer_end(start, end)) return false;
  *out = value;
  return true;
}

bool find_u64(const std::string& line, const char* key, std::uint64_t* out) {
  const char* start = find_value(line, key);
  if (start == nullptr || *start == '-') return false;  // strtoull wraps
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(start, &end, 10);
  if (errno == ERANGE || !integer_end(start, end)) return false;
  *out = value;
  return true;
}

bool find_u32(const std::string& line, const char* key, std::uint32_t* out) {
  std::uint64_t value = 0;
  if (!find_u64(line, key, &value) || value > 0xFFFFFFFFull) return false;
  *out = static_cast<std::uint32_t>(value);
  return true;
}

bool find_string(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::string value;
  for (std::size_t i = pos + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') {
      *out = std::move(value);
      return true;
    }
    if (c != '\\') {
      value += c;
      continue;
    }
    if (++i >= line.size()) return false;
    switch (line[i]) {
      case '"': value += '"'; break;
      case '\\': value += '\\'; break;
      case 'n': value += '\n'; break;
      case 't': value += '\t'; break;
      case 'u': {
        if (i + 4 >= line.size()) return false;
        const std::string hex = line.substr(i + 1, 4);
        if (hex.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string::npos) {
          return false;
        }
        const unsigned long cp = std::strtoul(hex.c_str(), nullptr, 16);
        if (cp > 0x7F) return false;
        value += static_cast<char>(cp);
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

}  // namespace cfds::jsonl
