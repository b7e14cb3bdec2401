#include "yamlx/parse.hpp"

#include <gtest/gtest.h>

namespace mcmm::yamlx {
namespace {

TEST(Parse, EmptyDocumentIsEmptyMapping) {
  const Node n = parse("");
  EXPECT_TRUE(n.is_mapping());
  EXPECT_EQ(n.size(), 0u);
}

TEST(Parse, SimpleMapping) {
  const Node n = parse("key: value\nother: 17\n");
  EXPECT_EQ(n.at("key").as_string(), "value");
  EXPECT_EQ(n.at("other").as_int(), 17);
}

TEST(Parse, LeadingDocumentMarker) {
  const Node n = parse("---\nkey: value\n");
  EXPECT_EQ(n.at("key").as_string(), "value");
}

TEST(Parse, SimpleSequence) {
  const Node n = parse("- a\n- b\n- c\n");
  ASSERT_TRUE(n.is_sequence());
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n.as_sequence()[2].as_string(), "c");
}

TEST(Parse, NestedMapping) {
  const Node n = parse(
      "outer:\n"
      "  inner: 1\n"
      "  deeper:\n"
      "    leaf: x\n");
  EXPECT_EQ(n.at("outer").at("inner").as_int(), 1);
  EXPECT_EQ(n.at("outer").at("deeper").at("leaf").as_string(), "x");
}

TEST(Parse, SequenceOfMappings) {
  const Node n = parse(
      "items:\n"
      "  - name: first\n"
      "    value: 1\n"
      "  - name: second\n"
      "    value: 2\n");
  const Sequence& items = n.at("items").as_sequence();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].at("name").as_string(), "first");
  EXPECT_EQ(items[1].at("value").as_int(), 2);
}

TEST(Parse, SequenceAtKeyIndentation) {
  // Sequences indented at the same level as their key are valid YAML.
  const Node n = parse(
      "flags:\n"
      "- -O2\n"
      "- -g\n");
  ASSERT_EQ(n.at("flags").size(), 2u);
  EXPECT_EQ(n.at("flags").as_sequence()[0].as_string(), "-O2");
}

TEST(Parse, CompactNestedSequence) {
  // "- - a" is a sequence whose first item is itself a sequence; further
  // items of the inner sequence continue at the column of its first "-".
  const Node one = parse("- - a\n");
  ASSERT_EQ(one.size(), 1u);
  ASSERT_EQ(one.as_sequence()[0].size(), 1u);
  EXPECT_EQ(one.as_sequence()[0].as_sequence()[0].as_string(), "a");

  const Node two = parse(
      "- - a\n"
      "  - b\n"
      "- c\n");
  ASSERT_EQ(two.size(), 2u);
  const auto& inner = two.as_sequence()[0].as_sequence();
  ASSERT_EQ(inner.size(), 2u);
  EXPECT_EQ(inner[0].as_string(), "a");
  EXPECT_EQ(inner[1].as_string(), "b");
  EXPECT_EQ(two.as_sequence()[1].as_string(), "c");
}

TEST(Parse, CommentsAndBlankLines) {
  const Node n = parse(
      "# full-line comment\n"
      "\n"
      "key: value  # trailing comment\n"
      "   \n"
      "other: v2\n");
  EXPECT_EQ(n.at("key").as_string(), "value");
  EXPECT_EQ(n.at("other").as_string(), "v2");
}

TEST(Parse, HashInsideScalarIsNotComment) {
  const Node n = parse("key: a#b\n");
  EXPECT_EQ(n.at("key").as_string(), "a#b");
}

TEST(Parse, DoubleQuotedScalars) {
  const Node n = parse("key: \"a: b # c\"\n");
  EXPECT_EQ(n.at("key").as_string(), "a: b # c");
}

TEST(Parse, DoubleQuotedEscapes) {
  const Node n = parse("key: \"line\\nbreak\\t\\\"q\\\\\"\n");
  EXPECT_EQ(n.at("key").as_string(), "line\nbreak\t\"q\\");
}

TEST(Parse, SingleQuotedScalars) {
  const Node n = parse("key: 'it''s #fine'\n");
  EXPECT_EQ(n.at("key").as_string(), "it's #fine");
}

TEST(Parse, EmptyValueIsEmptyScalar) {
  const Node n = parse("key:\nother: x\n");
  EXPECT_TRUE(n.at("key").is_scalar());
  EXPECT_EQ(n.at("key").as_string(), "");
}

TEST(Parse, ColonInsideValueIsAllowed) {
  const Node n = parse("url: https://example.com/x\n");
  EXPECT_EQ(n.at("url").as_string(), "https://example.com/x");
}

// The emitter writes all three of these; each used to fail to parse.
TEST(Parse, QuotedFirstKeyOfSequenceItem) {
  const Node n = parse("- \"a: b\": 1\n  c: 2\n- \"x\"\n");
  ASSERT_TRUE(n.is_sequence());
  EXPECT_EQ(n.as_sequence()[0].at("a: b").as_int(), 1);
  EXPECT_EQ(n.as_sequence()[0].at("c").as_int(), 2);
  EXPECT_EQ(n.as_sequence()[1].as_string(), "x");
}

TEST(Parse, QuotesInsidePlainScalarsAreContent) {
  const Node n = parse("it's: say \"hi\nk\"ey: a 'b\n");
  EXPECT_EQ(n.at("it's").as_string(), "say \"hi");
  EXPECT_EQ(n.at("k\"ey").as_string(), "a 'b");
}

TEST(Parse, EscapedQuoteInsideQuotedKey) {
  const Node n = parse("\"q\\\": x\": v\n");
  EXPECT_EQ(n.at("q\": x").as_string(), "v");
}

TEST(Parse, DeepNesting) {
  const Node n = parse(
      "a:\n"
      "  - b:\n"
      "      - c: 1\n"
      "        d: 2\n");
  const Node& b = n.at("a").as_sequence()[0].at("b");
  EXPECT_EQ(b.as_sequence()[0].at("d").as_int(), 2);
}

// --- Error cases ---

TEST(ParseError, DuplicateKey) {
  EXPECT_THROW((void)parse("k: 1\nk: 2\n"), ParseError);
}

TEST(ParseError, TabIndentation) {
  EXPECT_THROW((void)parse("k:\n\tv: 1\n"), ParseError);
}

TEST(ParseError, UnterminatedQuote) {
  EXPECT_THROW((void)parse("k: \"oops\n"), ParseError);
}

TEST(ParseError, FlowCollectionsRejected) {
  EXPECT_THROW((void)parse("k: [1, 2]\n"), ParseError);
  EXPECT_THROW((void)parse("k: {a: 1}\n"), ParseError);
}

TEST(ParseError, AnchorsRejected) {
  EXPECT_THROW((void)parse("k: &anchor v\n"), ParseError);
  EXPECT_THROW((void)parse("k: *ref\n"), ParseError);
}

TEST(ParseError, BlockScalarsRejected) {
  EXPECT_THROW((void)parse("k: |\n  text\n"), ParseError);
  EXPECT_THROW((void)parse("k: >\n  text\n"), ParseError);
}

TEST(ParseError, MultiDocumentRejected) {
  EXPECT_THROW((void)parse("a: 1\n---\nb: 2\n"), ParseError);
}

TEST(ParseError, NonMappingLineInsideMapping) {
  EXPECT_THROW((void)parse("a: 1\njust a scalar\n"), ParseError);
}

TEST(ParseError, ReportsLineNumber) {
  try {
    (void)parse("a: 1\nb: 2\nc: [x]\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

}  // namespace
}  // namespace mcmm::yamlx
