#include "util/csv.h"

#include <gtest/gtest.h>

namespace jarvis::util {
namespace {

TEST(Csv, WritesHeaderAndRows) {
  CsvWriter writer({"f", "normal", "jarvis"});
  writer.AddRow({"0.1", "35.2", "20.1"});
  writer.AddRow({"0.5", "34", "12.25"});
  EXPECT_EQ(writer.ToString(),
            "f,normal,jarvis\n0.1,35.2,20.1\n0.5,34,12.25\n");
  EXPECT_EQ(writer.row_count(), 2u);
}

TEST(Csv, RejectsColumnMismatch) {
  CsvWriter writer({"a", "b"});
  EXPECT_THROW(writer.AddRow({"only-one"}), std::invalid_argument);
}

TEST(Csv, QuotesFieldsWithSpecials) {
  CsvWriter writer({"text"});
  writer.AddRow({"a,b"});
  writer.AddRow({"say \"hi\""});
  writer.AddRow({"two\nlines"});
  EXPECT_EQ(writer.ToString(),
            "text\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"two\nlines\"\n");
}

}  // namespace
}  // namespace jarvis::util
