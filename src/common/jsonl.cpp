#include "common/jsonl.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// The unsigned decimal in [start, stop): digits only (from_chars takes no
/// blank or sign), within T's range, ending at an integer_end. `*end` is
/// set past it.
template <class T>
bool read_unsigned(const char* start, const char* stop, const char** end,
                   T* out) {
  T value = 0;
  const auto [past, ec] = std::from_chars(start, stop, value);
  if (ec != std::errc{} || !integer_end(start, past)) return false;
  *end = past;
  *out = value;
  return true;
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

std::string u32_list(const std::vector<std::uint32_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    append(out, i == 0 ? "%u" : ",%u", v[i]);
  }
  return out + "]";
}

std::string shortest(double value) {
  char buffer[32];  // holds any shortest round-trip double
  return {buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr};
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
  return start != nullptr &&
         read_unsigned(start, line.data() + line.size(), &start, out);
}

bool find_u32(const std::string& line, const char* key, std::uint32_t* out) {
  const char* start = find_value(line, key);
  return start != nullptr &&
         read_unsigned(start, line.data() + line.size(), &start, out);
}

bool find_bool(const std::string& line, const char* key, bool* out) {
  const char* start = find_value(line, key);
  if (start == nullptr) return false;
  const bool value = *start == 't';
  const char* word = value ? "true" : "false";
  const std::size_t n = std::strlen(word);
  if (std::strncmp(start, word, n) != 0 ||
      std::isalnum(static_cast<unsigned char>(start[n]))) {
    return false;
  }
  *out = value;
  return true;
}

bool find_u32_list(const std::string& line, const char* key,
                   std::vector<std::uint32_t>* out) {
  const char* at = find_value(line, key);
  if (at == nullptr || *at != '[') return false;
  std::vector<std::uint32_t> values;
  if (at[1] == ']') ++at;  // []
  // `at` is on the mark before each entry; entries carry no blanks.
  for (std::uint32_t value = 0; *at != ']'; values.push_back(value)) {
    if (*at != (values.empty() ? '[' : ',') ||
        !read_unsigned(at + 1, line.data() + line.size(), &at, &value)) {
      return false;
    }
  }
  *out = std::move(values);
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
