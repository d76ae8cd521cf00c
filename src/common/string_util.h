#ifndef DLINF_COMMON_STRING_UTIL_H_
#define DLINF_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace dlinf {

/// Splits on every occurrence of `sep`; adjacent separators yield empty
/// fields (CSV semantics).
std::vector<std::string> Split(const std::string& text, char sep);

/// Joins pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces,
                 const std::string& sep);

/// Strips ASCII whitespace from both ends.
std::string Trim(const std::string& text);

/// Parses all of `text` as a base-10 integer or a decimal floating-point
/// number into `*out`. False (and `*out` unspecified) on an empty string,
/// any trailing character ("4x") or a value out of range for T.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// ParseNumber for the value of command-line flag `flag`; on failure prints
/// "error: <flag> wants an integer|a number, got '<text>'" to stderr.
template <typename T>
bool ParseNumberFlag(const std::string& flag, const std::string& text,
                     T* out) {
  if (ParseNumber(text, out)) return true;
  std::fprintf(stderr, "error: %s wants %s, got '%s'\n", flag.c_str(),
               std::is_integral_v<T> ? "an integer" : "a number", text.c_str());
  return false;
}

/// printf-style formatting into a std::string (gcc 12 lacks std::format).
std::string StrPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace dlinf

#endif  // DLINF_COMMON_STRING_UTIL_H_
