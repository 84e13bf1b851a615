//===- tests/support/JsonTest.cpp -----------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace elfie;

namespace {

TEST(Json, WriterNestsAndInsertsCommas) {
  JsonWriter W;
  W.beginObject();
  W.key("a").value(uint64_t(1));
  W.key("b").beginArray();
  W.value("x").value(int64_t(-2)).value(true);
  W.beginObject().endObject();
  W.beginArray().endArray();
  W.endArray();
  W.key("c").beginObject().key("d").value(false).endObject();
  W.key("e").value(2.0 / 3.0, 1).key("f").value(2.0 / 3.0, 3);
  W.key("g").value(size_t(7)).key("h").integerToken("007");
  W.endObject();
  EXPECT_EQ(W.str(), "{\"a\":1,\"b\":[\"x\",-2,true,{},[]],"
                     "\"c\":{\"d\":false},\"e\":0.7,\"f\":0.667,"
                     "\"g\":7,\"h\":007}");
}

TEST(Json, EscapesQuoteBackslashAndEveryControlByte) {
  std::string In = "\"\\";
  for (int C = 0; C < 0x20; ++C)
    In += static_cast<char>(C);
  In += "\x7f\xc3\xa9";
  std::string Want = "\"\\\"\\\\";
  for (int C = 0; C < 0x20; ++C) {
    if (C == '\n')
      Want += "\\n";
    else if (C == '\t')
      Want += "\\t";
    else
      Want += "\\u00" + std::string(1, "0123456789abcdef"[C >> 4]) +
              "0123456789abcdef"[C & 0xf];
  }
  Want += "\x7f\xc3\xa9\"";
  std::string Out;
  appendJsonString(Out, In);
  EXPECT_EQ(Out, Want);

  // Keys take the same rule.
  JsonWriter W;
  W.beginObject().key(In).value(In).endObject();
  EXPECT_EQ(W.str(), "{" + Want + ":" + Want + "}");
}

TEST(Json, FlatObjectRoundTripsEveryByte) {
  std::string Every;
  for (int C = 1; C < 256; ++C)
    Every += static_cast<char>(C);
  JsonWriter W;
  W.beginObject();
  W.key("s").value(Every);
  W.key("n").integerToken("-0012");
  W.key("b").value(true);
  W.key("e").value("");
  W.endObject();
  std::map<std::string, std::string> Back;
  ASSERT_TRUE(parseFlatJsonObject(W.str(), Back)) << W.str();
  EXPECT_EQ(Back, (std::map<std::string, std::string>{
                      {"s", Every}, {"n", "-0012"}, {"b", "true"}, {"e", ""}}));
}

TEST(Json, FlatReaderRejectsWhatItDoesNotWrite) {
  std::map<std::string, std::string> Out;
  EXPECT_TRUE(parseFlatJsonObject(" { \"a\" : 1 ,\t\"b\":\"\\r\" } ", Out));
  EXPECT_EQ(Out["b"], "\r");
  for (const char *Bad :
       {"", "{", "{\"a\":1", "{\"a\":1}x", "{\"a\":{}}", "{\"a\":[1]}",
        "{\"a\":1.5}", "{\"a\":null}", "{\"a\":\"\\x\"}", "{\"a\":\"\\u00\"}",
        "{\"a\":\"\\u00zz\"}", "{a:1}", "{\"a\":\"open}"})
    EXPECT_FALSE(parseFlatJsonObject(Bad, Out)) << Bad;
}

} // namespace
