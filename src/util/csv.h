// Lightweight CSV writer used by the benchmark harness to emit the
// rows/series behind each paper table and figure.
#pragma once

#include <string>
#include <vector>

namespace jarvis::util {

// Accumulates rows and writes RFC-4180-style CSV (quotes fields containing
// commas, quotes, or newlines).
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  std::size_t row_count() const { return rows_.size(); }

  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace jarvis::util
