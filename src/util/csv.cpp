#include "util/csv.h"

#include <stdexcept>

namespace jarvis::util {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void CsvWriter::AddRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("CsvWriter::AddRow: column count mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string CsvWriter::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) out.push_back(',');
    out += QuoteField(header_[i]);
  }
  out.push_back('\n');
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out.push_back(',');
      out += QuoteField(row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace jarvis::util
