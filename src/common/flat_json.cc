#include "common/flat_json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/string_util.h"
#include "io/file.h"

namespace dlinf {

namespace {

void SkipSpace(std::string_view text, size_t* pos) {
  while (*pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[*pos]))) {
    ++*pos;
  }
}

/// Parses a JSON string at `*pos` (must point at the opening quote). Only
/// the escapes `\"` and `\\` are understood — enough for metric names.
bool ParseKey(std::string_view text, size_t* pos, std::string* out) {
  if (*pos >= text.size() || text[*pos] != '"') return false;
  ++*pos;
  out->clear();
  while (*pos < text.size()) {
    const char c = text[(*pos)++];
    if (c == '"') return true;
    if (c == '\\') {
      if (*pos >= text.size()) return false;
      const char escaped = text[(*pos)++];
      if (escaped != '"' && escaped != '\\') return false;
      out->push_back(escaped);
    } else {
      out->push_back(c);
    }
  }
  return false;
}

bool ParseNumber(std::string_view text, size_t* pos, double* out) {
  // strtod needs a NUL-terminated buffer; numbers are short, so copy the
  // next few characters.
  const std::string buffer(text.substr(*pos, 64));
  char* end = nullptr;
  *out = std::strtod(buffer.c_str(), &end);
  if (end == buffer.c_str()) return false;
  *pos += static_cast<size_t>(end - buffer.c_str());
  return true;
}

}  // namespace

std::string FlatJsonSerialize(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    CHECK(key.find('"') == std::string::npos &&
          key.find('\\') == std::string::npos);
    out += first ? "\n" : ",\n";
    first = false;
    out += StrPrintf("  \"%s\": %.17g", key.c_str(), value);
  }
  out += "\n}\n";
  return out;
}

std::optional<std::map<std::string, double>> FlatJsonParse(
    std::string_view text) {
  std::map<std::string, double> values;
  size_t pos = 0;
  SkipSpace(text, &pos);
  if (pos >= text.size() || text[pos] != '{') return std::nullopt;
  ++pos;
  SkipSpace(text, &pos);
  if (pos < text.size() && text[pos] == '}') {
    ++pos;
  } else {
    while (true) {
      std::string key;
      double value = 0.0;
      SkipSpace(text, &pos);
      if (!ParseKey(text, &pos, &key)) return std::nullopt;
      SkipSpace(text, &pos);
      if (pos >= text.size() || text[pos] != ':') return std::nullopt;
      ++pos;
      SkipSpace(text, &pos);
      if (!ParseNumber(text, &pos, &value)) return std::nullopt;
      values[key] = value;
      SkipSpace(text, &pos);
      if (pos >= text.size()) return std::nullopt;
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        break;
      }
      return std::nullopt;
    }
  }
  SkipSpace(text, &pos);
  if (pos != text.size()) return std::nullopt;
  return values;
}

std::optional<std::map<std::string, double>> FlatJsonLoad(
    const std::string& path) {
  std::string text;
  if (!io::ReadFile(path, &text)) return std::nullopt;
  return FlatJsonParse(text);
}

bool FlatJsonSave(const std::string& path,
                  const std::map<std::string, double>& values) {
  return io::WriteFileAtomic(path, FlatJsonSerialize(values));
}

}  // namespace dlinf
