#include "common/str_util.h"

#include "gtest/gtest.h"

namespace gmdj {
namespace {

TEST(StrUtilTest, StrCat) {
  EXPECT_EQ(StrCat({}), "");
  EXPECT_EQ(StrCat({"", ""}), "");
  const std::string middle = "x = 1";
  EXPECT_EQ(StrCat({"(", middle, std::string(" AND "), ")"}), "(x = 1 AND )");
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtilTest, Split) {
  EXPECT_EQ(Split("a.b.c", '.'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("abc", '.'), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(".a.", '.'), (std::vector<std::string>{"", "a", ""}));
}

TEST(StrUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("F.DestIP", "F."));
  EXPECT_FALSE(StartsWith("FF.DestIP", "F."));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(StrUtilTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadLeft("abcd", 2), "abcd");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadRight("abcd", 2), "abcd");
}

}  // namespace
}  // namespace gmdj
