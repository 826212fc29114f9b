// util::parseJson: the minimal parser that reads back the repo's own
// nested JSON output (BENCH_*.json, structured run exports).
#include <gtest/gtest.h>

#include "src/util/json.h"

namespace manet::util {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(parseJson("null")->isNull());
  EXPECT_TRUE(parseJson("true")->asBool());
  EXPECT_FALSE(parseJson("false")->asBool(true));
  EXPECT_DOUBLE_EQ(parseJson("42")->asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseJson("-3.5e2")->asNumber(), -350.0);
  EXPECT_EQ(parseJson("\"hi\"")->asString(), "hi");
}

TEST(JsonTest, ParsesNestedDocument) {
  const char* doc =
      "{\"a\": [1, 2, {\"b\": \"x\"}], \"c\": {\"d\": true}, \"e\": null}";
  const auto v = parseJson(doc);
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->isObject());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  ASSERT_EQ(a->asArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->asArray()[1].asNumber(), 2.0);
  EXPECT_EQ(a->asArray()[2].stringAt("b"), "x");
  EXPECT_TRUE(v->find("c")->find("d")->asBool());
  EXPECT_TRUE(v->find("e")->isNull());
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonTest, StringEscapes) {
  const auto v = parseJson("\"a\\\"b\\\\c\\nd\\te\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->asString(), "a\"b\\c\nd\te");
}

TEST(JsonTest, AppendJsonEscapedRoundTripsThroughParse) {
  std::string out = "\"";
  appendJsonEscaped(out, "q\"b\\n\nr\rt\t");
  out += '"';
  EXPECT_EQ(out, "\"q\\\"b\\\\n\\nr\\rt\\t\"");
  const auto v = parseJson(out);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->asString(), "q\"b\\n\nr\rt\t");

  // Other control bytes become \u00XX, which the parser keeps verbatim.
  std::string ctl;
  appendJsonEscaped(ctl, std::string("a\x01\x1f", 3));
  EXPECT_EQ(ctl, "a\\u0001\\u001f");
}

TEST(JsonTest, ConvenienceAccessors) {
  const auto v = parseJson("{\"n\": 7, \"s\": \"str\"}");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->numberAt("n"), 7.0);
  EXPECT_DOUBLE_EQ(v->numberAt("missing", -1.0), -1.0);
  EXPECT_EQ(v->stringAt("s"), "str");
  EXPECT_EQ(v->stringAt("n", "fallback"), "fallback");  // wrong type
}

TEST(JsonTest, RejectsMalformedWithOffset) {
  std::string err;
  EXPECT_FALSE(parseJson("{\"a\": }", &err).has_value());
  EXPECT_NE(err.find("offset"), std::string::npos);
  err.clear();
  EXPECT_FALSE(parseJson("[1, 2", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parseJson("", &err).has_value());
  EXPECT_FALSE(parseJson("{} trailing", &err).has_value());
  EXPECT_FALSE(parseJson("{\"a\":1,}x", &err).has_value());
  EXPECT_FALSE(parseJson("\"unterminated", &err).has_value());
  EXPECT_FALSE(parseJson("nul", &err).has_value());
}

TEST(JsonTest, EmptyContainers) {
  EXPECT_TRUE(parseJson("[]")->asArray().empty());
  EXPECT_TRUE(parseJson("{}")->asObject().empty());
  EXPECT_TRUE(parseJson("  { }  ")->isObject());
}

TEST(JsonTest, WrongTypeAccessorsFallBack) {
  const auto v = parseJson("[1]");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->asObject().empty());
  EXPECT_EQ(v->asString(), "");
  EXPECT_DOUBLE_EQ(v->asNumber(9.0), 9.0);
  EXPECT_EQ(v->find("k"), nullptr);
}

}  // namespace
}  // namespace manet::util
