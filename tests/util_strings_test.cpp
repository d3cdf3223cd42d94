#include "util/strings.h"

#include <gtest/gtest.h>

namespace jarvis::util {
namespace {

TEST(Strings, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
  EXPECT_TRUE(StartsWith("jarvis_core", "jarvis"));
  EXPECT_FALSE(StartsWith("jar", "jarvis"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(Strings, Format) {
  EXPECT_EQ(Format("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(Format("no args"), "no args");
}

}  // namespace
}  // namespace jarvis::util
