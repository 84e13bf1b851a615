//===- tests/support/FormatTest.cpp ---------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <gtest/gtest.h>

using namespace elfie;

TEST(Format, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%s", 3, "abc"), "x=3 y=abc");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(Format, ToHex) {
  EXPECT_EQ(toHex(0), "0x0");
  EXPECT_EQ(toHex(0xdeadbeef), "0xdeadbeef");
  EXPECT_EQ(toHex(UINT64_MAX), "0xffffffffffffffff");
}

TEST(Format, SplitString) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
  EXPECT_EQ(splitString("", ',').size(), 1u);
}

TEST(Format, SplitWords) {
  auto Words = splitWords(" a\t\tbc  d ");
  ASSERT_EQ(Words.size(), 3u);
  EXPECT_EQ(Words[0], "a");
  EXPECT_EQ(Words[1], "bc");
  EXPECT_EQ(Words[2], "d");
  EXPECT_TRUE(splitWords(" \t ").empty());
}

TEST(Format, TrimString) {
  EXPECT_EQ(trimString("  hi \t"), "hi");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("  "), "");
  EXPECT_EQ(trimString("x"), "x");
}

TEST(Format, StartsEndsWith) {
  EXPECT_TRUE(startsWith("prefix.rest", "prefix"));
  EXPECT_FALSE(startsWith("pre", "prefix"));
  EXPECT_TRUE(endsWith("file.reg", ".reg"));
  EXPECT_FALSE(endsWith("reg", "file.reg"));
}

TEST(Format, ParseInt64) {
  int64_t V;
  EXPECT_TRUE(parseInt64("42", V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(parseInt64("-7", V));
  EXPECT_EQ(V, -7);
  EXPECT_TRUE(parseInt64("0x10", V));
  EXPECT_EQ(V, 16);
  EXPECT_FALSE(parseInt64("", V));
  EXPECT_FALSE(parseInt64("12abc", V));
}

TEST(Format, ParseUInt64) {
  uint64_t V;
  EXPECT_TRUE(parseUInt64("0xffffffffffffffff", V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_FALSE(parseUInt64("-1", V));
}

TEST(Format, ParseDouble) {
  double V;
  EXPECT_TRUE(parseDouble("2.5", V));
  EXPECT_DOUBLE_EQ(V, 2.5);
  EXPECT_FALSE(parseDouble("x", V));
}
