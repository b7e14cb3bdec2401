// Tests for core/json: escaping (every dataset description must survive a
// round trip), the writer's layouts, the strict parser, and its
// adversarial inputs. Seeded fuzzing lives in test_json_fuzz.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "data/dataset.hpp"
#include "core/json.hpp"

namespace {

using mcmm::json_escape;
using mcmm::json_parse;
using mcmm::json_quote;
using mcmm::JsonValue;
using mcmm::JsonWriter;

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(json_quote(std::string("\x01", 1)), "\"\\u0001\"");
  // Multi-byte UTF-8 (the matrix category symbols) passes through verbatim.
  EXPECT_EQ(json_quote("(\u2713)"), "\"(\u2713)\"");
}

TEST(JsonEscape, AppendsWithoutClobbering) {
  std::string out = "prefix:";
  json_escape(out, "x\"y");
  EXPECT_EQ(out, "prefix:x\\\"y");
}

TEST(JsonEscape, ControlCharactersUseTheShortFormWhereOneExists) {
  EXPECT_EQ(json_quote("\b\f\n\r\t"), R"("\b\f\n\r\t")");
  for (int c = 0; c < 0x20; ++c) {
    if (c >= '\b' && c <= '\r' && c != '\v') continue;  // the short forms
    char want[16];
    std::snprintf(want, sizeof want, "\"\\u%04x\"", c);
    EXPECT_EQ(json_quote(std::string(1, static_cast<char>(c))), want) << c;
  }
  EXPECT_EQ(json_quote("\x7f/"), "\"\x7f/\"");  // DEL and '/' pass through
}

TEST(JsonWriter, CompactAndSpacedSeparators) {
  const auto write = [](JsonWriter::Style style) {
    std::string out;
    JsonWriter w(out, style);
    w.begin_object().key("a").integer(1).key("b").begin_array();
    w.str("x").boolean(true).null().end_array();
    w.key("c").begin_object().end_object().end_object();
    return out;
  };
  EXPECT_EQ(write(JsonWriter::Style::Compact),
            "{\"a\":1,\"b\":[\"x\",true,null],\"c\":{}}\n");
  EXPECT_EQ(write(JsonWriter::Style::Spaced),
            "{\"a\": 1, \"b\": [\"x\", true, null], \"c\": {}}\n");
}

TEST(JsonWriter, OnePerLineContainersIndentByDepth) {
  constexpr auto kLines = JsonWriter::Layout::Lines;
  std::string spaced;
  JsonWriter w(spaced, JsonWriter::Style::Spaced);
  w.begin_object(kLines).key("rows").begin_array(kLines);
  w.begin_object().key("n").integer(-7).end_object();
  w.begin_object().key("n").integer(8u).end_object();
  w.end_array().key("empty").begin_array(kLines).end_array().end_object();
  EXPECT_EQ(spaced,
            "{\n"
            "  \"rows\": [\n"
            "    {\"n\": -7},\n"
            "    {\"n\": 8}\n"
            "  ],\n"
            "  \"empty\": [\n"
            "  ]\n"
            "}\n");
  // Compact style breaks lines the same way but never indents.
  std::string compact;
  JsonWriter c(compact);
  c.begin_object().key("events").begin_array(kLines);
  c.integer(1).integer(2).end_array().end_object();
  EXPECT_EQ(compact, "{\"events\":[\n1,\n2\n]}\n");
}

TEST(JsonWriter, NumberText) {
  std::string out;
  JsonWriter w(out);
  w.begin_array().fixed(1.5).fixed(2.25, 0).general(0.000117546);
  w.general(75042.0).fixed(std::numeric_limits<double>::infinity());
  w.general(std::nan("")).end_array();
  EXPECT_EQ(out, "[1.500000,2,0.000117546,75042,null,null]\n");
  EXPECT_TRUE(json_parse(out).has_value());
}

TEST(JsonValue, FindIntegerReadsOnlyExactTopLevelIntegers) {
  const auto doc = json_parse(
      R"({"n": 42, "neg": -3, "frac": 1.5, "big": 1e300, "s": "7",
          "nested": {"m": 1}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find_integer("n"), 42);
  EXPECT_EQ(doc->find_integer("neg"), -3);
  EXPECT_EQ(doc->find_integer("frac"), std::nullopt);
  EXPECT_EQ(doc->find_integer("big"), std::nullopt);
  EXPECT_EQ(doc->find_integer("s"), std::nullopt);
  EXPECT_EQ(doc->find_integer("m"), std::nullopt);
  EXPECT_EQ(doc->find_integer("missing"), std::nullopt);
}

TEST(JsonRoundTrip, EveryDatasetDescriptionSurvives) {
  // Several Fig. 1 footnotes contain quotes and parentheses; whatever the
  // dataset holds must come back byte-identical through quote -> parse.
  const auto& matrix = mcmm::data::paper_matrix();
  ASSERT_FALSE(matrix.descriptions().empty());
  for (const auto* d : matrix.descriptions()) {
    const std::string wire = json_quote(d->text);
    std::string error;
    const auto value = json_parse(wire, &error);
    ASSERT_TRUE(value.has_value()) << error << " for: " << d->text;
    ASSERT_EQ(value->kind, JsonValue::Kind::String);
    EXPECT_EQ(value->string, d->text);
  }
}

TEST(JsonParse, ParsesScalarsArraysAndObjects) {
  auto v = json_parse(R"({"a": [1, 2.5, -3e2], "b": {"c": true,
                          "d": null}, "e": "x"})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->kind, JsonValue::Kind::Object);
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  const JsonValue* b = v->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->find("c"), nullptr);
  EXPECT_TRUE(b->find("c")->boolean);
  EXPECT_EQ(b->find("d")->kind, JsonValue::Kind::Null);
  EXPECT_EQ(v->find("e")->string, "x");
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParse, DecodesEscapesIncludingSurrogatePairs) {
  auto v = json_parse(R"("a\u0041\n\" \ud83d\ude00")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string, "aA\n\" \xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad : {
           "",             // empty
           "{",            // unterminated object
           "[1,]",         // trailing comma
           "{\"a\" 1}",    // missing colon
           "nul",          // truncated keyword
           "01",           // leading zero
           "1.",           // bare decimal point
           "\"a",          // unterminated string
           "\"\\q\"",      // bad escape
           "\"\\ud800\"",  // lone surrogate
           "\"\x01\"",     // raw control character in string
           "1 2",          // trailing garbage
           "{\"a\":1}}",   // trailing garbage after object
       }) {
    std::string error;
    EXPECT_FALSE(json_parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonParse, RejectsADepthBomb) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += '[';
  for (int i = 0; i < 200; ++i) bomb += ']';
  std::string error;
  EXPECT_FALSE(json_parse(bomb, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos);

  // 64 levels is the documented cap; just inside it must still parse.
  std::string ok;
  for (int i = 0; i < 63; ++i) ok += '[';
  for (int i = 0; i < 63; ++i) ok += ']';
  EXPECT_TRUE(json_parse(ok).has_value());
}

}  // namespace
