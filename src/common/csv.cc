#include "common/csv.h"

#include <algorithm>

#include "common/string_util.h"
#include "io/file.h"

namespace dlinf {

int CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::optional<CsvTable> ReadCsv(const std::string& path, char sep) {
  std::string text;
  if (!io::ReadFile(path, &text)) return std::nullopt;
  CsvTable table;
  bool first = true;
  for (size_t start = 0; start < text.size();) {
    const size_t end = std::min(text.find('\n', start), text.size());
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(line, sep);
    if (first) {
      table.header = std::move(fields);
      first = false;
    } else {
      if (fields.size() != table.header.size()) return std::nullopt;
      table.rows.push_back(std::move(fields));
    }
  }
  if (first) return std::nullopt;  // Empty file: not a valid table.
  return table;
}

bool WriteCsv(const std::string& path, const CsvTable& table, char sep) {
  const std::string sep_str(1, sep);
  std::string text = Join(table.header, sep_str) + "\n";
  for (const auto& row : table.rows) {
    if (row.size() != table.header.size()) return false;
    text += Join(row, sep_str) + "\n";
  }
  return io::WriteFileAtomic(path, text);
}

}  // namespace dlinf
